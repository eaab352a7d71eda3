module Op = Esr_store.Op

type t = Et.action list
(* In execution order.  Histories in tests are small; experiment
   histories are consumed once by the checker. *)

let of_actions actions = actions
let length = List.length

let actions t = t
let nth = List.nth

let of_string s =
  let tokens =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  let parse tok =
    let fail () = invalid_arg (Printf.sprintf "Hist.of_string: bad token %S" tok) in
    let n = String.length tok in
    if n < 4 then fail ();
    let op_char = tok.[0] in
    (* find '(' *)
    let lparen = try String.index tok '(' with Not_found -> fail () in
    if tok.[n - 1] <> ')' || lparen < 2 then fail ();
    let et =
      match int_of_string_opt (String.sub tok 1 (lparen - 1)) with
      | Some i -> i
      | None -> fail ()
    in
    let key = String.sub tok (lparen + 1) (n - lparen - 2) in
    if key = "" then fail ();
    let op =
      match op_char with
      | 'R' -> Op.Read
      | 'W' -> Op.Write (Esr_store.Value.Int 0)
      | _ -> fail ()
    in
    Et.action ~et ~key op
  in
  of_actions (List.map parse tokens)

let ets t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (a : Et.action) ->
      let kind =
        match Hashtbl.find_opt table a.Et.et with
        | Some Et.Update -> Et.Update
        | Some Et.Query | None ->
            if Op.is_update a.Et.op then Et.Update else Et.Query
      in
      Hashtbl.replace table a.Et.et kind)
    (actions t);
  Hashtbl.fold (fun id kind acc -> (id, kind) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let kind_of t id =
  match List.assoc_opt id (ets t) with
  | Some k -> k
  | None -> raise Not_found

let keys_of t id =
  actions t
  |> List.filter_map (fun (a : Et.action) ->
         if a.Et.et = id then Some a.Et.key else None)
  |> List.sort_uniq String.compare

let positions_of t id =
  let hits =
    List.mapi (fun i (a : Et.action) -> (i, a)) (actions t)
    |> List.filter (fun (_, (a : Et.action)) -> a.Et.et = id)
    |> List.map fst
  in
  match hits with [] -> raise Not_found | _ -> hits

let first_pos t id = List.hd (positions_of t id)
let last_pos t id = List.hd (List.rev (positions_of t id))

let filter_ets t ~keep =
  of_actions (List.filter (fun (a : Et.action) -> keep a.Et.et) (actions t))

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
    Et.pp_action ppf (actions t)

let to_string t = Format.asprintf "%a" pp t
