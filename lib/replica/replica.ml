(* The replica kernel: per-site log, image and up/down flag, and the
   per-system record every method builds on; see replica.mli. *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Squeue = Esr_squeue.Squeue
module Engine = Esr_sim.Engine
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type site = {
  site : int;
  mutable store : Store.t;
  mutable hist : Hist.t;
  mutable down : bool;
}

type 'm t = {
  env : Intf.env;
  sites : site array;
  fabric : 'm Squeue.t;
  deliver : site:int -> 'm -> unit;
  dests : Sharding.Dests.t;
  mutable deferred : (int * 'm) list;
  mutable updates : int;
  mutable queries : int;
  mutable rejected : int;
}

let create (env : Intf.env) ~mode ~receive make =
  let rec sys = lazy (make (Lazy.force k))
  and k =
    lazy
      (let deliver ~site m = receive (Lazy.force sys) ~site m in
       let fabric =
         Squeue.create ~mode ?backoff:env.Intf.config.Intf.retry_backoff
           ~obs:env.Intf.obs env.Intf.net
           ~handler:(fun ~site ~src:_ m -> receive (Lazy.force sys) ~site m)
       in
       let store () =
         Store.create ~size:env.Intf.store_hint ~keyspace:env.Intf.keyspace ()
       in
       {
         env;
         sites =
           Array.init env.Intf.sites (fun site ->
               { site; store = store (); hist = Hist.empty; down = false });
         fabric;
         deliver;
         dests = Sharding.Dests.cursor env.Intf.sharding;
         deferred = [];
         updates = 0;
         queries = 0;
         rejected = 0;
       })
  in
  Lazy.force sys

let log r ~et ~key op = r.hist <- Hist.append r.hist (Et.action ~et ~key op)
let now k = Engine.now k.env.Intf.engine
let trace k = k.env.Intf.obs.Esr_obs.Obs.trace

(* --- updates --- *)

let reject k notify reason =
  k.rejected <- k.rejected + 1;
  notify (Intf.Rejected reason)

let admit ?refused k ~origin intents notify =
  if k.sites.(origin).down then begin
    notify (Intf.Rejected "origin site down");
    false
  end
  else if intents = [] then begin
    notify (Intf.Rejected "empty update ET");
    false
  end
  else
    match refused with
    | Some reason ->
        reject k notify reason;
        false
    | None ->
        k.updates <- k.updates + 1;
        true

let commit k notify = notify (Intf.Committed { committed_at = now k })

(* A loop, not [List.iter] with a closure: routing runs once per MSet. *)
let rec add_keys c ks key_of = function
  | [] -> ()
  | x :: rest ->
      Sharding.Dests.add_id c (Keyspace.intern ks (key_of x));
      add_keys c ks key_of rest

let route k key_of xs =
  let c = k.dests in
  Sharding.Dests.reset c;
  add_keys c k.env.Intf.keyspace key_of xs;
  c

let participants k key_of xs =
  let c = route k key_of xs in
  let arr = Array.make (Sharding.Dests.count c) 0 and i = ref 0 in
  Sharding.Dests.iter c (fun s ->
      arr.(!i) <- s;
      incr i);
  arr

let enqueued k ~et ~origin key_of xs =
  let trace = trace k in
  if Trace.on trace then
    Trace.emit trace ~time:(now k)
      (Trace.Mset_enqueued
         { et; origin; n_ops = List.length xs; keys = List.map key_of xs })

let apply k ~site ~et ~n_ops ~order f a b c =
  let trace = trace k in
  if Trace.on trace then
    Trace.emit trace ~time:(now k)
      (Trace.Mset_applied
         { et; site; n_ops; order = (if order < 0 then None else Some order) });
  let prof = k.env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    f a b c;
    Prof.record prof ~site Prof.Apply ~t0 ~a0
  end
  else f a b c

let apply_ops r et ops =
  List.iter
    (fun (key, op) ->
      (match Store.apply_unit r.store key op with
      | Ok () -> ()
      | Error _ -> invalid_arg "Replica.apply_ops: op failed to apply");
      log r ~et ~key op)
    ops

let local k ~site m =
  if k.sites.(site).down then k.deferred <- (site, m) :: k.deferred
  else k.deliver ~site m

let post k ~src ~dst m =
  if src = dst then local k ~site:dst m else Squeue.send k.fabric ~src ~dst m

(* --- queries --- *)

let answer k notify ~started_at ~charged ~forced ~consistent values =
  notify
    {
      Intf.values;
      charged;
      forced;
      consistent_path = consistent;
      started_at;
      served_at = now k;
    }

let image k ~site keys =
  let store = k.sites.(site).store in
  List.map (fun key -> (key, Store.get store key)) keys

let read k ~site ~et key =
  let r = k.sites.(site) in
  log r ~et ~key Op.Read;
  Store.get r.store key

let read_all k ~site ~et keys =
  List.map (fun key -> (key, read k ~site ~et key)) keys

let open_query k ~site ~keys ~started_at notify =
  k.queries <- k.queries + 1;
  if k.sites.(site).down then begin
    answer k notify ~started_at ~charged:0 ~forced:0 ~consistent:false
      (image k ~site keys);
    false
  end
  else true

(* --- crash, recovery, checkpoints --- *)

type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

let nothing_dropped () = { buffered = 0; queries_failed = 0; updates_rejected = 0 }

let crash ?(drop = nothing_dropped) k ~site =
  let r = k.sites.(site) in
  if not r.down then begin
    r.down <- true;
    let d = drop () in
    let trace = trace k in
    if Trace.on trace then
      Trace.emit trace ~time:(now k)
        (Trace.Volatile_dropped
           {
             site;
             buffered = d.buffered;
             queries_failed = d.queries_failed;
             updates_rejected = d.updates_rejected;
             log = Hist.length r.hist;
           })
  end

let orphans tbl mine =
  Hashtbl.fold (fun key v acc -> if mine v then (key, v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let recover ?replay ?(rejoin = ignore) k ~site =
  let r = k.sites.(site) in
  if r.down then begin
    r.down <- false;
    let env = k.env in
    let ckpt = env.Intf.checkpoint in
    let base =
      match ckpt with Some c -> Checkpoint.base c ~site | None -> None
    in
    let rebuild () =
      match replay with
      | Some f -> f ~base r.hist
      | None ->
          Esr_core.Logmerge.apply ?base ~keyspace:env.Intf.keyspace
            ~size:env.Intf.store_hint r.hist
    in
    r.store <- Prof.span env.Intf.obs.Esr_obs.Obs.prof ~site Prof.Replay rebuild;
    let len = Hist.length r.hist in
    let trace = trace k in
    if Trace.on trace then
      Trace.emit trace ~time:(now k)
        (Trace.Recovery_replay { site; n_actions = len });
    (match ckpt with
    | Some c -> Checkpoint.note_tail_replay c ~site ~len
    | None -> ());
    rejoin ();
    let mine, others =
      List.partition (fun (s, _) -> s = site) (List.rev k.deferred)
    in
    k.deferred <- List.rev others;
    List.iter (fun (_, m) -> k.deliver ~site m) mine
  end

let cut ?(gc = fun () -> 0) ?mv k ~site =
  let r = k.sites.(site) in
  match k.env.Intf.checkpoint with
  | Some c when not r.down ->
      let dedup = Squeue.gc_site k.fabric ~site in
      let reclaimed = dedup + gc () in
      r.hist <-
        Checkpoint.cut c ~engine:k.env.Intf.engine ~site ?mv ~store:r.store
          ~hist:r.hist ~reclaimed ()
  | Some _ | None -> ()

(* --- accessors --- *)

let store k ~site = k.sites.(site).store
let history k ~site = k.sites.(site).hist

let resources ?wal k ~site =
  let r = k.sites.(site) in
  let of_wal f = match wal with Some w -> f w ~site | None -> 0 in
  {
    Intf.log_entries = Hist.length r.hist;
    log_bytes = Hist.approx_bytes r.hist;
    wal_entries = of_wal Recovery.Wal.size;
    wal_appended = of_wal Recovery.Wal.appended;
    wal_high_water = of_wal Recovery.Wal.high_water;
    journal_depth = Squeue.journal_depth k.fabric ~site;
    journal_enqueued = Squeue.journaled k.fabric ~site;
    store_words = Store.live_words r.store;
  }

let converged k =
  Sharding.converged k.env.Intf.sharding ~keyspace:k.env.Intf.keyspace
    ~store:(fun site -> k.sites.(site).store)

let stats k rows =
  ("updates", float_of_int k.updates)
  :: ("queries", float_of_int k.queries)
  :: rows
