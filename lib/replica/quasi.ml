(** QUASI — quasi-copies baseline (Alonso, Barbará & Garcia-Molina,
    discussed in the paper's §5.2 "Read-only Redundancy").

    All updates execute at a single primary site under local 1SR; the
    other replicas hold *quasi-copies* that the primary refreshes
    according to a coherency ("closeness") condition:

    - [`Immediate]: push every update as it commits;
    - [`Periodic tau]: push the dirty keys every [tau] ms;
    - [`Drift alpha]: push a key once its value drifts more than [alpha]
      from the last propagated image (the arithmetic closeness predicate
      of quasi-copies).

    Queries read the local quasi-copy free of charge — inconsistency is
    governed by the closeness spec, not by per-query counters — except
    that a query with [epsilon = Limit 0] is routed to the primary for a
    strictly serializable answer (one round trip), mirroring the
    quasi-copies option of consulting the central copy.

    This is a *comparator*, not one of the paper's replica-control
    methods: it shows what §5.2 contrasts ESR against — all updates 1SR
    at a primary, inconsistency only from propagation lag, and no
    per-query inconsistency dial. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

let primary = 0

type msg =
  | Do_update of { et : Et.id; ops : (string * Op.t) list; origin : int }
  | Update_done of { et : Et.id }
  | Refresh of { key : string; value : Value.t; version : int }
  | Do_query of { qid : int; keys : string list; origin : int }
  | Query_reply of { qid : int; values : (string * Value.t) list }

type site = {
  id : int;
  mutable store : Store.t;  (* volatile image; rebuilt from [hist] *)
  mutable hist : Hist.t;  (* the durable log *)
  versions : (string, int) Hashtbl.t;
      (* refresh versions seen — durable, written with the data *)
  mutable down : bool;
}

(* A strict query waiting on the primary's reply; the wait context is
   volatile at the querying site. *)
type pending_query = {
  q_origin : int;
  q_notify : (string * Value.t) list -> unit;
  q_fail : unit -> unit;
}

type t = {
  env : Intf.env;
  dests : Sharding.Dests.t;  (* reusable routing cursor (refresh path) *)
  sites : site array;
  fabric : msg Squeue.t;
  refresh : [ `Immediate | `Periodic of float | `Drift of float ];
  (* primary-side propagation state *)
  last_pushed : (string, Value.t) Hashtbl.t;
  mutable dirty : string list;
  mutable timer_armed : bool;
  mutable next_version : int;
  outcomes : (Et.id, int * (Intf.update_outcome -> unit)) Hashtbl.t;
      (* origin site and commit callback — volatile origin-side state *)
  query_replies : (int, pending_query) Hashtbl.t;
  mutable next_qid : int;
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_refreshes : int;
  mutable n_primary_reads : int;
}

let meta =
  {
    Intf.name = "QUASI";
    family = Intf.Synchronous;
    restriction = "primary-copy updates";
    async_propagation = "Query only";
    sorting_time = "at primary";
  }

let log_action site ~et ~key op =
  site.hist <- Hist.append site.hist (Et.action ~et ~key op)

let value_drift a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Float.abs (float_of_int (x - y))
  | a, b -> if Value.equal a b then 0.0 else infinity

let push_key t key =
  let p = t.sites.(primary) in
  let value = Store.get p.store key in
  Hashtbl.replace t.last_pushed key value;
  t.next_version <- t.next_version + 1;
  t.n_refreshes <- t.n_refreshes + 1;
  (* Refresh pushes are QUASI's update propagation: only the sites keeping
     a quasi-copy of the key's shard need them. *)
  let propagate () =
    let c = t.dests in
    Sharding.Dests.reset c;
    Sharding.Dests.add_id c (Keyspace.find t.env.Intf.keyspace key);
    Squeue.multicast t.fabric ~src:primary ~dests:c
      (Refresh { key; value; version = t.next_version })
  in
  let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    propagate ();
    Prof.record prof ~site:primary Prof.Propagate ~t0 ~a0
  end
  else propagate ()

let rec arm_timer t tau =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    ignore
      (Engine.schedule t.env.engine ~delay:tau (fun () ->
           t.timer_armed <- false;
           let dirty = List.sort_uniq String.compare t.dirty in
           t.dirty <- [];
           List.iter (push_key t) dirty;
           (* Re-arm only while there is still work: keeps the event
              queue drainable at quiescence. *)
           if t.dirty <> [] then arm_timer t tau))
  end

let after_primary_update t keys =
  match t.refresh with
  | `Immediate -> List.iter (push_key t) (List.sort_uniq String.compare keys)
  | `Periodic tau ->
      t.dirty <- keys @ t.dirty;
      arm_timer t tau
  | `Drift alpha ->
      List.iter
        (fun key ->
          let current = Store.get t.sites.(primary).store key in
          let last =
            Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero
          in
          if value_drift current last > alpha then push_key t key)
        keys

let rec receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Do_update { et; ops; origin } ->
      (* Only the primary processes updates, serially: local 1SR. *)
      let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
      if Trace.on trace then
        Trace.emit trace ~time:(Engine.now t.env.engine)
          (Trace.Mset_applied
             { et; site = site_id; n_ops = List.length ops; order = None });
      let apply () =
        List.iter
          (fun (key, op) ->
            (match Store.apply_unit site.store key op with
            | Ok () -> ()
            | Error _ -> invalid_arg "QUASI: op failed at primary");
            log_action site ~et ~key op)
          ops
      in
      let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
      if Prof.on prof then begin
        let t0 = Prof.start prof in
        let a0 = Prof.alloc0 prof in
        apply ();
        Prof.record prof ~site:site_id Prof.Apply ~t0 ~a0
      end
      else apply ();
      after_primary_update t (List.map fst ops);
      let reply = Update_done { et } in
      if origin = site_id then receive t ~site:origin reply
      else Squeue.send t.fabric ~src:site_id ~dst:origin reply
  | Update_done { et } -> (
      match Hashtbl.find_opt t.outcomes et with
      | Some (_, notify) ->
          Hashtbl.remove t.outcomes et;
          notify (Intf.Committed { committed_at = Engine.now t.env.engine })
      | None -> ())
  | Refresh { key; value; version } ->
      let seen = Option.value (Hashtbl.find_opt site.versions key) ~default:0 in
      if version > seen then begin
        Hashtbl.replace site.versions key version;
        Store.set site.store key value;
        log_action site ~et:(t.env.Intf.next_et ()) ~key (Op.Write value)
      end
  | Do_query { qid; keys; origin } ->
      let query_et = t.env.Intf.next_et () in
      let values =
        List.map
          (fun key ->
            log_action site ~et:query_et ~key Op.Read;
            (key, Store.get site.store key))
          keys
      in
      let reply = Query_reply { qid; values } in
      if origin = site_id then receive t ~site:origin reply
      else Squeue.send t.fabric ~src:site_id ~dst:origin reply
  | Query_reply { qid; values } -> (
      match Hashtbl.find_opt t.query_replies qid with
      | Some pq ->
          Hashtbl.remove t.query_replies qid;
          pq.q_notify values
      | None -> ())

let create (env : Intf.env) =
  let rec t =
    lazy
      (let fabric =
         Squeue.create ~mode:Squeue.Unordered
           ~retry_interval:env.Intf.config.Intf.retry_interval
           ?backoff:env.Intf.config.Intf.retry_backoff
           ~obs:env.Intf.obs env.Intf.net
           ~handler:(fun ~site ~src:_ msg -> receive (Lazy.force t) ~site msg)
       in
       {
         env;
         dests = Sharding.Dests.cursor env.Intf.sharding;
         sites =
           Array.init env.Intf.sites (fun id ->
               {
                 id;
                 store =
                   Store.create ~size:env.Intf.store_hint
                     ~keyspace:env.Intf.keyspace ();
                 hist = Hist.empty;
                 versions = Hashtbl.create (Stdlib.max 32 env.Intf.store_hint);
                 down = false;
               });
         fabric;
         refresh = env.Intf.config.Intf.quasi_refresh;
         last_pushed = Hashtbl.create (Stdlib.max 32 env.Intf.store_hint);
         dirty = [];
         timer_armed = false;
         next_version = 0;
         outcomes = Hashtbl.create 32;
         query_replies = Hashtbl.create 32;
         next_qid = 0;
         n_updates = 0;
         n_queries = 0;
         n_refreshes = 0;
         n_primary_reads = 0;
       })
  in
  Lazy.force t

let intent_to_op = function
  | Intf.Set (k, v) -> (k, Op.Write v)
  | Intf.Add (k, d) -> (k, Op.Incr d)
  | Intf.Mul (k, f) -> (k, Op.Mult f)

let submit_update t ~origin intents k =
  if t.sites.(origin).down then k (Intf.Rejected "origin site down")
  else if intents = [] then k (Intf.Rejected "empty update ET")
  else begin
    t.n_updates <- t.n_updates + 1;
    let et = t.env.Intf.next_et () in
    let ops = List.map intent_to_op intents in
    let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace ~time:(Engine.now t.env.engine)
        (Trace.Mset_enqueued
           {
             et;
             origin;
             n_ops = List.length ops;
             keys = List.map fst ops;
           });
    Hashtbl.replace t.outcomes et (origin, k);
    let msg = Do_update { et; ops; origin } in
    if origin = primary then receive t ~site:primary msg
    else Squeue.send t.fabric ~src:origin ~dst:primary msg
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  t.n_queries <- t.n_queries + 1;
  let started_at = Engine.now t.env.engine in
  let finish ~consistent values =
    k
      {
        Intf.values;
        charged = 0;
        forced = 0;
        consistent_path = consistent;
        started_at;
        served_at = Engine.now t.env.engine;
      }
  in
  let local_degraded () =
    (* Graceful failure: answer from the last local image, flagged
       degraded (nothing is logged — the site is not executing). *)
    finish ~consistent:false
      (List.map (fun key -> (key, Store.get t.sites.(site_id).store key)) keys)
  in
  let strict = epsilon = Epsilon.Limit 0 in
  if t.sites.(site_id).down then local_degraded ()
  else if strict && site_id <> primary then begin
    (* Consult the central copy, as quasi-copies applications do when the
       local copy is not close enough. *)
    t.n_primary_reads <- t.n_primary_reads + 1;
    t.next_qid <- t.next_qid + 1;
    let qid = t.next_qid in
    Hashtbl.replace t.query_replies qid
      {
        q_origin = site_id;
        q_notify = finish ~consistent:true;
        q_fail = local_degraded;
      };
    Squeue.send t.fabric ~src:site_id ~dst:primary
      (Do_query { qid; keys; origin = site_id })
  end
  else begin
    let site = t.sites.(site_id) in
    let query_et = t.env.Intf.next_et () in
    let values =
      List.map
        (fun key ->
          log_action site ~et:query_et ~key Op.Read;
          (key, Store.get site.store key))
        keys
    in
    finish ~consistent:(site_id = primary) values
  end

let flush t =
  (* Push everything outstanding so quasi-copies converge at quiescence. *)
  let dirty = List.sort_uniq String.compare t.dirty in
  t.dirty <- [];
  List.iter (push_key t) dirty;
  match t.refresh with
  | `Drift _ ->
      (* Keys within the drift band were never pushed; final flush
         reconciles them. *)
      List.iter
        (fun key ->
          let current = Store.get t.sites.(primary).store key in
          let last =
            Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero
          in
          if not (Value.equal current last) then push_key t key)
        (Store.keys t.sites.(primary).store)
  | `Immediate | `Periodic _ -> ()

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  if not site.down then begin
    site.down <- true;
    (* Strict queries from this site waiting on the primary's reply: the
       wait context is volatile — answer degraded from the local image. *)
    let my_queries =
      Hashtbl.fold
        (fun qid pq acc -> if pq.q_origin = site_id then (qid, pq) :: acc else acc)
        t.query_replies []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter (fun (qid, _) -> Hashtbl.remove t.query_replies qid) my_queries;
    List.iter (fun (_, pq) -> pq.q_fail ()) my_queries;
    (* Updates submitted here still waiting on Update_done: the origin-side
       callback is volatile, so the client sees a rejection even though the
       primary may have (or will have) applied the ET. *)
    let my_updates =
      Hashtbl.fold
        (fun et (origin, notify) acc ->
          if origin = site_id then (et, notify) :: acc else acc)
        t.outcomes []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter (fun (et, _) -> Hashtbl.remove t.outcomes et) my_updates;
    List.iter
      (fun (_, notify) -> notify (Intf.Rejected "origin site crashed"))
      my_updates;
    (* The primary's propagation bookkeeping (dirty set, last-pushed
       images) is volatile; recovery re-pushes everything instead. *)
    let buffered =
      if site_id = primary then begin
        let n = List.length (List.sort_uniq String.compare t.dirty) in
        t.dirty <- [];
        Hashtbl.reset t.last_pushed;
        n
      end
      else 0
    in
    Recovery.emit_volatile_dropped ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine
      ~site:site_id ~buffered ~queries_failed:(List.length my_queries)
      ~updates_rejected:(List.length my_updates) ~log:(Hist.length site.hist)
  end

let on_recover t ~site:site_id =
  let site = t.sites.(site_id) in
  if site.down then begin
    site.down <- false;
    site.store <-
      Recovery.replay_site ?ckpt:t.env.Intf.checkpoint
        ~keyspace:t.env.Intf.keyspace ~size:t.env.Intf.store_hint
        ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine ~site:site_id site.hist;
    if site_id = primary then
      (* Anti-entropy resync: with the dirty/last-pushed bookkeeping lost,
         re-push the whole image so quasi-copies re-converge and the
         closeness predicate restarts from a known state. *)
      List.iter (push_key t)
        (List.sort String.compare (Store.keys site.store))
  end

let checkpoint t ~site:site_id =
  match t.env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      let site = t.sites.(site_id) in
      if not site.down then begin
        let reclaimed = Squeue.gc_site t.fabric ~site:site_id in
        site.hist <-
          Checkpoint.cut c ~engine:t.env.Intf.engine ~site:site_id
            ~store:site.store ~hist:site.hist ~reclaimed ()
      end

let backlog t =
  Hashtbl.length t.outcomes + Hashtbl.length t.query_replies
  + List.length t.dirty

let quiescent t =
  Hashtbl.length t.outcomes = 0
  && Hashtbl.length t.query_replies = 0
  && t.dirty = []
  &&
  match t.refresh with
  | `Drift _ ->
      List.for_all
        (fun key ->
          Value.equal
            (Store.get t.sites.(primary).store key)
            (Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero))
        (Store.keys t.sites.(primary).store)
  | `Immediate | `Periodic _ -> true

let store t ~site = t.sites.(site).store
let mvstore _ ~site:_ = None
let history t ~site = t.sites.(site).hist

let converged t =
  (* The primary's copy is the master; each quasi-copy must agree with it
     on exactly the keys (shards) it replicates. *)
  let reference = t.sites.(primary).store in
  let sh = t.env.Intf.sharding in
  let n = Keyspace.size t.env.Intf.keyspace in
  let ok = ref true in
  let id = ref 0 in
  while !ok && !id < n do
    let v = Store.get_id reference !id in
    let reps = Sharding.replicas sh (Sharding.shard_of_id sh !id) in
    for i = 0 to Array.length reps - 1 do
      let s = reps.(i) in
      if
        !ok && s <> primary
        && not (Value.equal (Store.get_id t.sites.(s).store !id) v)
      then ok := false
    done;
    incr id
  done;
  !ok

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("refreshes", float_of_int t.n_refreshes);
    ("primary_reads", float_of_int t.n_primary_reads);
  ]

(* Refresh versions live with the data; there is no receipt journal, so
   the WAL fields stay zero. *)
let resources t ~site:site_id =
  let site = t.sites.(site_id) in
  {
    Intf.no_resources with
    Intf.log_entries = Hist.length site.hist;
    log_bytes = Hist.approx_bytes site.hist;
    journal_depth = Squeue.journal_depth t.fabric ~site:site_id;
    journal_enqueued = Squeue.journaled t.fabric ~site:site_id;
    store_words = Store.live_words site.store;
  }
