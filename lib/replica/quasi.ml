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
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Prof = Esr_obs.Prof

let primary = 0

type msg =
  | Do_update of { et : Et.id; ops : (string * Op.t) list; origin : int }
  | Update_done of { et : Et.id }
  | Refresh of { key : string; value : Value.t; version : int }
  | Do_query of { qid : int; keys : string list; origin : int }
  | Query_reply of { qid : int; values : (string * Value.t) list }

(* A strict query waiting on the primary's reply; the wait context is
   volatile at the querying site. *)
type pending_query = {
  q_origin : int;
  q_notify : (string * Value.t) list -> unit;
  q_fail : unit -> unit;
}

type t = {
  k : msg Replica.t;
  versions : (string, int) Hashtbl.t array;
      (* per site: refresh versions seen — durable, written with the data *)
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

let value_drift a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Float.abs (float_of_int (x - y))
  | a, b -> if Value.equal a b then 0.0 else infinity

let push_key t key =
  let value = Store.get t.k.sites.(primary).store key in
  Hashtbl.replace t.last_pushed key value;
  t.next_version <- t.next_version + 1;
  t.n_refreshes <- t.n_refreshes + 1;
  (* Refresh pushes are QUASI's update propagation: only the sites keeping
     a quasi-copy of the key's shard need them. *)
  Prof.span t.k.env.Intf.obs.Esr_obs.Obs.prof ~site:primary Prof.Propagate
    (fun () ->
      Squeue.multicast t.k.fabric ~src:primary
        ~dests:(Replica.route t.k Fun.id [ key ])
        (Refresh { key; value; version = t.next_version }))

let rec arm_timer t tau =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    ignore
      (Engine.schedule t.k.env.engine ~delay:tau (fun () ->
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
          let current = Store.get t.k.sites.(primary).store key in
          let last =
            Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero
          in
          if value_drift current last > alpha then push_key t key)
        keys

let receive t ~site:site_id msg =
  let site = t.k.sites.(site_id) in
  match msg with
  | Do_update { et; ops; origin } ->
      (* Only the primary processes updates, serially: local 1SR. *)
      Replica.apply t.k ~site:site_id ~et ~n_ops:(List.length ops) ~order:(-1)
        Replica.apply_ops site et ops;
      after_primary_update t (List.map fst ops);
      Replica.post t.k ~src:site_id ~dst:origin (Update_done { et })
  | Update_done { et } -> (
      match Hashtbl.find_opt t.outcomes et with
      | Some (_, notify) ->
          Hashtbl.remove t.outcomes et;
          Replica.commit t.k notify
      | None -> ())
  | Refresh { key; value; version } ->
      let versions = t.versions.(site_id) in
      let seen = Option.value (Hashtbl.find_opt versions key) ~default:0 in
      if version > seen then begin
        Hashtbl.replace versions key version;
        let id = Store.intern site.store key in
        Store.set_id site.store id value;
        Replica.log_id site ~et:(t.k.env.Intf.next_et ()) ~id (Op.Write value)
      end
  | Do_query { qid; keys; origin } ->
      let query_et = t.k.env.Intf.next_et () in
      let values = Replica.read_all t.k ~site:site_id ~et:query_et keys in
      Replica.post t.k ~src:site_id ~dst:origin (Query_reply { qid; values })
  | Query_reply { qid; values } -> (
      match Hashtbl.find_opt t.query_replies qid with
      | Some pq ->
          Hashtbl.remove t.query_replies qid;
          pq.q_notify values
      | None -> ())

let drop t ~site:site_id =
  (* Strict queries from this site waiting on the primary's reply: the
     wait context is volatile — answer degraded from the local
     image. *)
  let my_queries =
    Replica.orphans t.query_replies (fun pq -> pq.q_origin = site_id)
  in
  List.iter (fun (qid, _) -> Hashtbl.remove t.query_replies qid) my_queries;
  List.iter (fun (_, pq) -> pq.q_fail ()) my_queries;
  (* Updates submitted here still waiting on Update_done: the
     origin-side callback is volatile, so the client sees a rejection
     even though the primary may have (or will have) applied the ET. *)
  let my_updates =
    Replica.orphans t.outcomes (fun (origin, _) -> origin = site_id)
  in
  List.iter (fun (et, _) -> Hashtbl.remove t.outcomes et) my_updates;
  List.iter
    (fun (_, (_, notify)) -> notify (Intf.Rejected "origin site crashed"))
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
  {
    Replica.buffered;
    queries_failed = List.length my_queries;
    updates_rejected = List.length my_updates;
  }

let rejoin t ~site:site_id =
  if site_id = primary then
    (* Anti-entropy resync: with the dirty/last-pushed bookkeeping lost,
       re-push the whole image so quasi-copies re-converge and the
       closeness predicate restarts from a known state. *)
    List.iter (push_key t)
      (List.sort String.compare (Store.keys t.k.sites.(primary).store))

(* The primary's copy is the master; each quasi-copy must agree with it
   on exactly the keys (shards) it replicates.  The primary applies every
   key, so this also makes each shard's replicas agree with each other. *)
let agree t =
  let reference = t.k.sites.(primary).store in
  let sh = t.k.env.Intf.sharding in
  let n = Keyspace.size t.k.env.Intf.keyspace in
  let ok = ref true in
  let id = ref 0 in
  while !ok && !id < n do
    let v = Store.get_id reference !id in
    let reps = Sharding.replicas sh (Sharding.shard_of_id sh !id) in
    for i = 0 to Array.length reps - 1 do
      let s = reps.(i) in
      if
        !ok && s <> primary
        && not (Value.equal (Store.get_id t.k.sites.(s).store !id) v)
      then ok := false
    done;
    incr id
  done;
  !ok

(* Refresh versions live with the data; there is no receipt journal, so
   the WAL fields stay zero. *)
let create (env : Intf.env) =
  Replica.create env ~mode:Squeue.Unordered ~receive ~drop ~rejoin ~agree
    (fun k ->
      {
        k;
        versions = Array.init env.Intf.sites (fun _ -> Hashtbl.create 32);
        refresh = env.Intf.config.Intf.quasi_refresh;
        last_pushed = Hashtbl.create 32;
        dirty = [];
        timer_armed = false;
        next_version = 0;
        outcomes = Hashtbl.create 32;
        query_replies = Hashtbl.create 32;
        next_qid = 0;
        n_refreshes = 0;
        n_primary_reads = 0;
      })

let kernel t = Replica.Any t.k

let submit_update t ~origin intents k =
  if Replica.admit t.k ~origin intents k then begin
    let et = t.k.env.Intf.next_et () in
    let ops = List.map Intf.op_of_intent intents in
    Replica.enqueued t.k ~et ~origin fst ops;
    Hashtbl.replace t.outcomes et (origin, k);
    Replica.post t.k ~src:origin ~dst:primary (Do_update { et; ops; origin })
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  let started_at = Replica.now t.k in
  let finish ~consistent values =
    Replica.answer t.k k ~started_at ~charged:0 ~forced:0 ~consistent values
  in
  (* A crashed site answers from its last local image, unlogged: it is
     not executing. *)
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then
    if epsilon = Epsilon.Limit 0 && site_id <> primary then begin
      (* Consult the central copy, as quasi-copies applications do when
         the local copy is not close enough. *)
      t.n_primary_reads <- t.n_primary_reads + 1;
      t.next_qid <- t.next_qid + 1;
      let qid = t.next_qid in
      Hashtbl.replace t.query_replies qid
        {
          q_origin = site_id;
          q_notify = finish ~consistent:true;
          q_fail =
            (fun () ->
              finish ~consistent:false (Replica.image t.k ~site:site_id keys));
        };
      Squeue.send t.k.fabric ~src:site_id ~dst:primary
        (Do_query { qid; keys; origin = site_id })
    end
    else
      let query_et = t.k.env.Intf.next_et () in
      finish ~consistent:(site_id = primary)
        (Replica.read_all t.k ~site:site_id ~et:query_et keys)

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
          let current = Store.get t.k.sites.(primary).store key in
          let last =
            Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero
          in
          if not (Value.equal current last) then push_key t key)
        (Store.keys t.k.sites.(primary).store)
  | `Immediate | `Periodic _ -> ()

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
            (Store.get t.k.sites.(primary).store key)
            (Option.value (Hashtbl.find_opt t.last_pushed key) ~default:Value.zero))
        (Store.keys t.k.sites.(primary).store)
  | `Immediate | `Periodic _ -> true

let stats t =
  Replica.stats t.k
    [
      ("refreshes", float_of_int t.n_refreshes);
      ("primary_reads", float_of_int t.n_primary_reads);
    ]
