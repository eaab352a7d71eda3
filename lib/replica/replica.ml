(* The replica kernel: per-site log, image and up/down flag, and the
   per-system record every method builds on; see replica.mli. *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Oplog = Esr_core.Oplog
module Et = Esr_core.Et
module Squeue = Esr_squeue.Squeue
module Engine = Esr_sim.Engine
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type log = Oplog.t

type site = {
  site : int;
  mutable store : Store.t;
  log : log;
  mutable down : bool;
}

type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

let nothing_dropped = { buffered = 0; queries_failed = 0; updates_rejected = 0 }

(* The method's hooks, closed over its lazily built state as [deliver]. *)
type hooks = {
  drop : (site:int -> dropped) option;
  replay : (site:int -> base:Store.t option -> log -> Store.t) option;
  rejoin : (site:int -> unit) option;
  gc : (site:int -> int) option;
  mv : (site:int -> Esr_store.Mvstore.t) option;
  wal : (site:int -> int * int * int) option;  (* size, appended, high water *)
  agree : (unit -> bool) option;
}

type 'm t = {
  env : Env.env;
  sites : site array;
  fabric : 'm Squeue.t;
  deliver : site:int -> 'm -> unit;
  hooks : hooks;
  dests : Sharding.Dests.t;
  mutable deferred : (int * 'm) list;
  mutable updates : int;
  mutable queries : int;
  mutable rejected : int;
}

let create ?drop ?replay ?rejoin ?gc ?mv ?wal ?agree (env : Env.env) ~mode
    ~receive make =
  let rec sys = lazy (make (Lazy.force k))
  and k =
    lazy
      (let on hook = Option.map (fun f ~site -> f (Lazy.force sys) ~site) hook in
       let deliver ~site m = receive (Lazy.force sys) ~site m in
       let hooks =
         {
           drop = on drop;
           replay = on replay;
           rejoin = on rejoin;
           gc = on gc;
           mv = on mv;
           wal = on (Option.map (fun w s -> Recovery.Wal.counts (w s)) wal);
           agree = Option.map (fun f () -> f (Lazy.force sys)) agree;
         }
       in
       let fabric =
         Squeue.create ~mode ?backoff:env.Env.config.Env.retry_backoff
           ~obs:env.Env.obs env.Env.net
           ~handler:(fun ~site ~src:_ m -> receive (Lazy.force sys) ~site m)
       in
       let ks = env.Env.keyspace in
       {
         env;
         sites =
           Array.init env.Env.sites (fun site ->
               {
                 site;
                 store = Store.create ~keyspace:ks ();
                 log = Oplog.create ks;
                 down = false;
               });
         fabric;
         deliver;
         hooks;
         dests = Sharding.Dests.cursor env.Env.sharding;
         deferred = [];
         updates = 0;
         queries = 0;
         rejected = 0;
       })
  in
  Lazy.force sys

let log r ~et ~key op = ignore (Oplog.append_key r.log ~et ~key op)
let log_id r ~et ~id op = Oplog.append r.log ~et ~id op
let iter_log = Oplog.iter
let now k = Engine.now k.env.Env.engine
let trace k = k.env.Env.obs.Esr_obs.Obs.trace

(* --- updates --- *)

let reject k notify reason =
  k.rejected <- k.rejected + 1;
  notify (Env.Rejected reason)

let admit ?refused k ~origin intents notify =
  if k.sites.(origin).down then begin
    notify (Env.Rejected "origin site down");
    false
  end
  else if intents = [] then begin
    notify (Env.Rejected "empty update ET");
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

let commit k notify = notify (Env.Committed { committed_at = now k })

(* A loop, not [List.iter] with a closure: routing runs once per MSet. *)
let rec add_keys c ks key_of = function
  | [] -> ()
  | x :: rest ->
      Sharding.Dests.add_id c (Keyspace.intern ks (key_of x));
      add_keys c ks key_of rest

let route k key_of xs =
  let c = k.dests in
  Sharding.Dests.reset c;
  add_keys c k.env.Env.keyspace key_of xs;
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
  let prof = k.env.Env.obs.Esr_obs.Obs.prof in
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
      let id = Store.intern r.store key in
      (match Store.apply_id_unit r.store id op with
      | Ok () -> ()
      | Error _ -> invalid_arg "Replica.apply_ops: op failed to apply");
      log_id r ~et ~id op)
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
      Env.values;
      charged;
      forced;
      consistent_path = consistent;
      started_at;
      served_at = now k;
    }

let image k ~site keys =
  let store = k.sites.(site).store in
  List.map (fun key -> (key, Store.get store key)) keys

(* One lookup serves the log and the store: a key no site has written
   is logged by name under a negative id, which the store reads as
   zero. *)
let read k ~site ~et key =
  let r = k.sites.(site) in
  Store.get_id r.store (Oplog.append_key r.log ~et ~key Op.Read)

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

type any = Any : 'm t -> any

let crash (Any k) ~site =
  let r = k.sites.(site) in
  if not r.down then begin
    r.down <- true;
    let d =
      Option.fold k.hooks.drop ~none:nothing_dropped ~some:(fun f -> f ~site)
    in
    let trace = trace k in
    if Trace.on trace then
      Trace.emit trace ~time:(now k)
        (Trace.Volatile_dropped
           {
             site;
             buffered = d.buffered;
             queries_failed = d.queries_failed;
             updates_rejected = d.updates_rejected;
             log = Oplog.length r.log;
           })
  end

let orphans tbl mine =
  Hashtbl.fold (fun key v acc -> if mine v then (key, v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let recover (Any k) ~site =
  let r = k.sites.(site) in
  if r.down then begin
    r.down <- false;
    let env = k.env in
    let ckpt = env.Env.checkpoint in
    let base =
      match ckpt with Some c -> Checkpoint.base c ~site | None -> None
    in
    let rebuild () =
      match k.hooks.replay with
      | Some f -> f ~site ~base r.log
      | None -> Esr_core.Logmerge.replay ?base ~keyspace:env.Env.keyspace r.log
    in
    r.store <- Prof.span env.Env.obs.Esr_obs.Obs.prof ~site Prof.Replay rebuild;
    let len = Oplog.length r.log in
    let trace = trace k in
    if Trace.on trace then
      Trace.emit trace ~time:(now k)
        (Trace.Recovery_replay { site; n_actions = len });
    (match ckpt with
    | Some c -> Checkpoint.note_tail_replay c ~site ~len
    | None -> ());
    Option.iter (fun f -> f ~site) k.hooks.rejoin;
    let mine, others =
      List.partition (fun (s, _) -> s = site) (List.rev k.deferred)
    in
    k.deferred <- List.rev others;
    List.iter (fun (_, m) -> k.deliver ~site m) mine
  end

let mvstore (Any k) ~site = Option.map (fun mv -> mv ~site) k.hooks.mv

let cut (Any k as any) ~site =
  let r = k.sites.(site) in
  match k.env.Env.checkpoint with
  | Some c when not r.down ->
      let dedup = Squeue.gc_site k.fabric ~site in
      let gc = Option.fold k.hooks.gc ~none:0 ~some:(fun f -> f ~site) in
      let reclaimed = dedup + gc in
      Checkpoint.cut c ~engine:k.env.Env.engine ~site ?mv:(mvstore any ~site)
        ~store:r.store ~log:r.log ~reclaimed ()
  | Some _ | None -> ()

(* --- accessors --- *)

let store (Any k) ~site = k.sites.(site).store
let history (Any k) ~site = Oplog.to_hist k.sites.(site).log

let resources (Any k) ~site =
  let r = k.sites.(site) in
  let wal_entries, wal_appended, wal_high_water =
    match k.hooks.wal with Some f -> f ~site | None -> (0, 0, 0)
  in
  {
    Env.log_entries = Oplog.length r.log;
    log_bytes = Oplog.bytes r.log;
    wal_entries;
    wal_appended;
    wal_high_water;
    journal_depth = Squeue.journal_depth k.fabric ~site;
    journal_enqueued = Squeue.journaled k.fabric ~site;
    store_words = Store.live_words r.store;
  }

let converged (Any k) =
  Sharding.converged k.env.Env.sharding ~store:(fun site -> k.sites.(site).store)
  && Option.fold k.hooks.agree ~none:true ~some:(fun f -> f ())

let stats k rows =
  ("updates", float_of_int k.updates)
  :: ("queries", float_of_int k.queries)
  :: rows
