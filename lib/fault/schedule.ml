module Engine = Esr_sim.Engine
module Net = Esr_sim.Net

type action =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal

type step = { at : float; action : action }

type t = step list

let empty = []
let steps t = t
let is_empty t = t = []

let make steps = List.stable_sort (fun a b -> Float.compare a.at b.at) steps

let validate ?checkpoint ~sites t =
  let check_site s =
    if s < 0 || s >= sites then
      Error (Printf.sprintf "site %d out of range [0,%d)" s sites)
    else Ok ()
  in
  (* A crash at the exact virtual time of a checkpoint cut would leave
     the cut/crash interleaving to engine tie-breaking (scheduling
     order), which is deterministic but invisible in the schedule —
     reject it instead of leaving the semantics unspecified.  Cut times
     are the positive multiples of the interval; times are floats, so
     only an exact collision trips this. *)
  let check_crash_time at =
    match checkpoint with
    | Some interval
      when interval > 0.0 && at > 0.0 && Float.rem at interval = 0.0 ->
        Error
          (Printf.sprintf
             "crash at t=%g coincides with a checkpoint cut (interval %g): \
              move the crash off the cut time"
             at interval)
    | _ -> Ok ()
  in
  let rec check_steps = function
    | [] -> Ok ()
    | { at; action } :: rest -> (
        if not (Float.is_finite at) || at < 0.0 then
          Error (Printf.sprintf "step time %g is not a non-negative finite" at)
        else
          let step_ok =
            match action with
            | Crash s -> (
                match check_crash_time at with
                | Error _ as e -> e
                | Ok () -> check_site s)
            | Recover s -> check_site s
            | Heal -> Ok ()
            | Partition groups ->
                let seen = Hashtbl.create 8 in
                List.fold_left
                  (fun acc group ->
                    List.fold_left
                      (fun acc s ->
                        match acc with
                        | Error _ as e -> e
                        | Ok () ->
                            if Hashtbl.mem seen s then
                              Error
                                (Printf.sprintf
                                   "site %d listed twice in partition" s)
                            else begin
                              Hashtbl.replace seen s ();
                              check_site s
                            end)
                      acc group)
                  (Ok ()) groups
          in
          match step_ok with Error _ as e -> e | Ok () -> check_steps rest)
  in
  check_steps t

(* Each step's time, paired with whether a fault is in effect once it
   has fired: some site crashed, or a partition standing. *)
let states t =
  let down = Hashtbl.create 8 and partitioned = ref false in
  List.map
    (fun { at; action } ->
      (match action with
      | Crash s -> Hashtbl.replace down s ()
      | Recover s -> Hashtbl.remove down s
      | Partition _ -> partitioned := true
      | Heal -> partitioned := false);
      (at, Hashtbl.length down > 0 || !partitioned))
    t

let all_clear t =
  match List.rev (states t) with [] -> true | (_, faulty) :: _ -> not faulty

let faulty t =
  let states = states t in
  fun time ->
    List.fold_left
      (fun acc (at, faulty) -> if at <= time then faulty else acc)
      false states

let clear_time t = List.fold_left (fun acc { at; _ } -> Float.max acc at) 0.0 t

let time_repr v =
  (* Shortest representation that parses back to the same float. *)
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let action_to_string = function
  | Crash s -> Printf.sprintf "crash:%d" s
  | Recover s -> Printf.sprintf "recover:%d" s
  | Heal -> "heal"
  | Partition groups ->
      Printf.sprintf "partition:%s"
        (String.concat "|"
           (List.map
              (fun g -> String.concat " " (List.map string_of_int g))
              groups))

let step_to_spec { at; action } =
  match action with
  | Crash s -> Printf.sprintf "crash@%s:%d" (time_repr at) s
  | Recover s -> Printf.sprintf "recover@%s:%d" (time_repr at) s
  | Heal -> Printf.sprintf "heal@%s" (time_repr at)
  | Partition groups ->
      Printf.sprintf "partition@%s:%s" (time_repr at)
        (String.concat "|"
           (List.map
              (fun g -> String.concat " " (List.map string_of_int g))
              groups))

let to_spec t = String.concat ";" (List.map step_to_spec t)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i { at; action } ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "t=%-8s %s" (time_repr at) (action_to_string action))
    t;
  Format.fprintf ppf "@]"

let parse_step s =
  let s = String.trim s in
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "step %S: missing '@time'" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let time_str, arg =
        match String.index_opt rest ':' with
        | None -> (rest, None)
        | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      match float_of_string_opt (String.trim time_str) with
      | None -> Error (Printf.sprintf "step %S: bad time %S" s time_str)
      | Some at -> (
          let site_arg name k =
            match arg with
            | None -> Error (Printf.sprintf "step %S: %s needs ':site'" s name)
            | Some a -> (
                match int_of_string_opt (String.trim a) with
                | Some site -> k site
                | None -> Error (Printf.sprintf "step %S: bad site %S" s a))
          in
          match String.lowercase_ascii (String.trim kind) with
          | "crash" -> site_arg "crash" (fun site -> Ok { at; action = Crash site })
          | "recover" ->
              site_arg "recover" (fun site -> Ok { at; action = Recover site })
          | "heal" -> Ok { at; action = Heal }
          | "partition" -> (
              match arg with
              | None -> Error (Printf.sprintf "step %S: partition needs groups" s)
              | Some a -> (
                  let groups = String.split_on_char '|' a in
                  let parse_group g =
                    String.split_on_char ' '
                      (String.map (fun c -> if c = ',' then ' ' else c) g)
                    |> List.filter (fun tok -> String.trim tok <> "")
                    |> List.map (fun tok -> int_of_string_opt (String.trim tok))
                  in
                  let parsed = List.map parse_group groups in
                  if
                    List.exists (fun g -> List.exists (fun x -> x = None) g) parsed
                  then Error (Printf.sprintf "step %S: bad partition groups" s)
                  else
                    let groups =
                      List.map (List.filter_map (fun x -> x)) parsed
                      |> List.filter (fun g -> g <> [])
                    in
                    if groups = [] then
                      Error (Printf.sprintf "step %S: empty partition" s)
                    else Ok { at; action = Partition groups }))
          | other -> Error (Printf.sprintf "step %S: unknown action %S" s other)))

let of_spec spec =
  let pieces =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if pieces = [] then Error "empty fault spec"
  else
    let rec parse acc = function
      | [] -> Ok (make (List.rev acc))
      | piece :: rest -> (
          match parse_step piece with
          | Ok step -> parse (step :: acc) rest
          | Error _ as e -> e)
    in
    parse [] pieces

let action_label = function
  | Crash site -> Printf.sprintf "crash:%d" site
  | Recover site -> Printf.sprintf "recover:%d" site
  | Partition groups ->
      Printf.sprintf "partition:%s"
        (String.concat "|"
           (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))
  | Heal -> "heal"

let inject ?(on_crash = fun _ -> ()) ?(on_recover = fun _ -> ()) ?annotate engine
    net t =
  List.iter
    (fun { at; action } ->
      ignore
        (Engine.schedule_at engine ~time:at (fun () ->
             (match annotate with
             | Some f -> f ~time:at (action_label action)
             | None -> ());
             match action with
             | Crash site ->
                 if Net.site_up net site then begin
                   Net.crash net site;
                   on_crash site
                 end
             | Recover site ->
                 if not (Net.site_up net site) then begin
                   Net.recover net site;
                   on_recover site
                 end
             | Partition groups -> Net.partition net groups
             | Heal -> Net.heal net)))
    t
