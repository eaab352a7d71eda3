module Op = Esr_store.Op
module Store = Esr_store.Store

type outcome = {
  merged : Hist.t;
  rolled_back : Et.id list;
  clean_keys : string list;
  conflict_keys : string list;
}

let update_actions hist =
  List.filter (fun (a : Et.action) -> Op.is_update a.Et.op) (Hist.actions hist)

(* Two operations on the same object merge cleanly iff they commute —
   which in our operation algebra already subsumes the related work's
   "overwrite" class: timestamped blind writes commute with each other
   because latest-timestamp-wins makes their order irrelevant. *)
let mergeable a b = Op.commutes a b

let merge ~majority ~minority =
  let maj = update_actions majority in
  let mins = update_actions minority in
  (* Index majority operations by key. *)
  let maj_by_key = Hashtbl.create 32 in
  List.iter
    (fun (a : Et.action) ->
      let existing = Option.value (Hashtbl.find_opt maj_by_key a.Et.key) ~default:[] in
      Hashtbl.replace maj_by_key a.Et.key (a.Et.op :: existing))
    maj;
  (* A minority ET survives iff every one of its operations merges with
     every majority operation on the same key. *)
  let doomed = Hashtbl.create 16 in
  let clean = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
  List.iter
    (fun (a : Et.action) ->
      let against =
        Option.value (Hashtbl.find_opt maj_by_key a.Et.key) ~default:[]
      in
      if List.for_all (mergeable a.Et.op) against then
        Hashtbl.replace clean a.Et.key ()
      else begin
        Hashtbl.replace dirty a.Et.key ();
        Hashtbl.replace doomed a.Et.et ()
      end)
    mins;
  let survivors =
    List.filter (fun (a : Et.action) -> not (Hashtbl.mem doomed a.Et.et)) mins
  in
  let merged = Hist.of_actions (maj @ survivors) in
  let keys table =
    Hashtbl.fold (fun k () acc -> k :: acc) table [] |> List.sort String.compare
  in
  {
    merged;
    rolled_back =
      Hashtbl.fold (fun et () acc -> et :: acc) doomed [] |> List.sort Int.compare;
    clean_keys = List.filter (fun k -> not (Hashtbl.mem dirty k)) (keys clean);
    conflict_keys = keys dirty;
  }

let failed name op key =
  invalid_arg (Printf.sprintf "Logmerge.%s: %s failed on %s" name (Op.to_string op) key)

let apply hist =
  let store = Store.create () in
  List.iter
    (fun (a : Et.action) ->
      if Op.is_update a.Et.op then
        match Store.apply_unit store a.Et.key a.Et.op with
        | Ok () -> ()
        | Error _ -> failed "apply" a.Et.op a.Et.key)
    (Hist.actions hist);
  store

(* Only updates are applied, and an update's key was interned when it
   was routed, so every id folded here is a real one. *)
let replay ?base ~keyspace log =
  let store =
    match base with Some store -> store | None -> Store.create ~keyspace ()
  in
  Oplog.iter log (fun _ id op ->
      if Op.is_update op then
        match Store.apply_id_unit store id op with
        | Ok () -> ()
        | Error _ -> failed "replay" op (Esr_store.Keyspace.name keyspace id));
  store

let equivalent_states a b = Store.equal (apply a) (apply b)
