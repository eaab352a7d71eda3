(** TWOPC — synchronous 1SR baseline: read-one/write-all with two-phase
    commit and strict 2PL at every replica.

    This is the "traditional coherency control" the paper positions
    against (§2.4): every update ET is a distributed transaction that
    write-locks all copies and runs a commit agreement protocol, so its
    latency includes two WAN round trips plus lock waits, and a network
    partition blocks updates entirely (prepared participants keep their
    locks until the coordinator's decision gets through).  Queries lock
    and read the local copy only (read-one), so they stay available — but
    they block behind prepared writers on hot keys.

    Update ETs first serialize at a global lock service on site 0
    (primary-site 2PL in the Alsberg–Day style), acquiring their keys in
    sorted order — a total acquisition order in one lock space, so
    update/update deadlocks cannot form even across sites.  Participant
    W-locks can still collide with local query R-locks; those local
    deadlocks are detected, making the participant vote no (the update
    aborts and is reported [Rejected]) or the query retry.  A coordinator
    timeout (presumed abort) is the backstop for partitions.

    Coordinator failure is not modelled (sites only partition in the
    experiments); decisions are always eventually delivered by the stable
    queues, so participants never block forever once connectivity
    returns. *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type msg =
  | Lock_req of { et : Et.id; keys : string list; coordinator : int }
      (** global-lock acquisition at the lock-service site (site 0) *)
  | Lock_granted of { et : Et.id }
  | Prepare of { et : Et.id; ops : (string * Op.t) list; coordinator : int }
  | Vote of { et : Et.id; yes : bool }
  | Decision of { et : Et.id; commit : bool; coordinator : int }
  | Done of { et : Et.id }

type coord_state = {
  c_et : Et.id;
  c_site : int;  (* the coordinator's site id *)
  c_ops : (string * Op.t) list;
  c_parts : int array;
      (* participant sites (ascending): the union of the touched shards'
         replica sets — every site under the all-sites map *)
  mutable c_votes : int;  (* votes still awaited *)
  mutable c_acks : int;  (* completion acks still awaited *)
  mutable c_aborted : bool;
  mutable c_decided : bool;
  c_notify : Intf.update_outcome -> unit;
}

(* A query waiting on local locks; its lock-queue continuation is
   volatile, so a crash fails it degraded and cancels the request. *)
type waiting_q = {
  mutable wq_et : Et.id;  (* the current attempt's lock-space txn id *)
  mutable wq_done : bool;
  wq_fail : unit -> unit;
}

type site = {
  id : int;
  replica : Replica.t;  (* durable log, store image, up/down *)
  locks : Lock_mgr.t;
      (* prepared W-locks are durable (classic prepared-state-in-the-WAL);
         query R-requests are cancelled at crash, so the table never holds
         volatile state across an outage *)
  prepared : (Et.id, (string * Op.t) list) Hashtbl.t;  (* durable *)
  aborted : (Et.id, unit) Hashtbl.t;
      (* aborts decided while this site's prepare was still waiting for
         locks: when the late grant finally lands, release immediately *)
  mutable waiting : waiting_q list;
}

type t = {
  env : Intf.env;
  dests : Sharding.Dests.t;  (* reusable routing cursor (submit path) *)
  sites : site array;
  fabric : msg Squeue.t;
  coords : (Et.id, coord_state) Hashtbl.t;
  mutable deferred_local : (int * msg) list;
      (* a site's own 2PC records landing while it is down (same-site
         shortcut messages); replayed in order at recovery.  Newest
         first. *)
  global_locks : Lock_mgr.t;
      (* the lock service at site 0: serializes update ETs globally, in
         sorted key order, so update/update distributed deadlocks cannot
         form (primary-site 2PL à la Alsberg–Day) *)
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_aborted : int;
  mutable n_lock_waits : int;
}

let meta =
  {
    Intf.name = "2PC";
    family = Intf.Synchronous;
    restriction = "atomic commitment";
    async_propagation = "None";
    sorting_time = "at commit";
  }

(* Acquire [requests] one at a time on [locks]; [fail] runs on a deadlock
   refusal (locks already granted to [txn] are released). *)
let acquire_all t locks ~txn requests ~ok ~fail =
  let rec next = function
    | [] -> ok ()
    | (key, mode, op) :: rest -> (
        let continue () = next rest in
        match Lock_mgr.acquire locks ~txn ~key ~mode ?op ~on_grant:continue () with
        | Lock_mgr.Granted -> continue ()
        | Lock_mgr.Blocked -> t.n_lock_waits <- t.n_lock_waits + 1
        | Lock_mgr.Deadlock ->
            Lock_mgr.release_all locks ~txn;
            fail ())
  in
  next requests

let rec receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Lock_req { et; keys; coordinator } ->
      (* Global locks are acquired in sorted key order with FIFO queues:
         a total acquisition order over a single lock space admits no
         cycles among update ETs. *)
      let requests =
        List.map
          (fun key -> (key, Lock_table.W, None))
          (List.sort_uniq String.compare keys)
      in
      acquire_all t t.global_locks ~txn:et requests
        ~ok:(fun () -> post t ~src:site_id ~dst:coordinator (Lock_granted { et }))
        ~fail:(fun () ->
          (* Cannot happen with ordered acquisition, but stay safe. *)
          post t ~src:site_id ~dst:coordinator (Vote { et; yes = false }))
  | Lock_granted { et } -> (
      match Hashtbl.find_opt t.coords et with
      | None -> ()
      | Some coord ->
          if not coord.c_decided then begin
            (* Phase 1 proper: prepare at every participant, coordinator
               included when it participates.  The fan-out is 2PC's update
               propagation, so it carries the Propagate profiling phase. *)
            Prof.span t.env.Intf.obs.Esr_obs.Obs.prof ~site:coord.c_site
              Prof.Propagate (fun () ->
                Array.iter
                  (fun dst ->
                    post t ~src:coord.c_site ~dst
                      (Prepare
                         {
                           et = coord.c_et;
                           ops = coord.c_ops;
                           coordinator = coord.c_site;
                         }))
                  coord.c_parts)
          end)
  | Prepare { et; ops; coordinator } ->
      (* A participant locks, logs and applies only the ops of the shards
         it replicates (it joined the union for at least one of them). *)
      let ops =
        List.filter
          (fun (key, _) ->
            Sharding.replicates_id t.env.Intf.sharding ~site:site_id
              ~id:(Keyspace.find t.env.Intf.keyspace key))
          ops
      in
      let requests =
        List.map (fun (key, op) -> (key, Lock_table.W, Some op)) ops
      in
      acquire_all t site.locks ~txn:et requests
        ~ok:(fun () ->
          if Hashtbl.mem site.aborted et then begin
            (* The coordinator gave up (timeout) while we were waiting for
               locks; drop them right away. *)
            Hashtbl.remove site.aborted et;
            Lock_mgr.release_all site.locks ~txn:et
          end
          else begin
            Hashtbl.replace site.prepared et ops;
            post t ~src:site_id ~dst:coordinator (Vote { et; yes = true })
          end)
        ~fail:(fun () ->
          post t ~src:site_id ~dst:coordinator (Vote { et; yes = false }))
  | Vote { et; yes } -> coordinator_vote t et yes
  | Decision { et; commit; coordinator } ->
      (* The lock service lives at site 0: any decision ends the update
         ET's global locks (release also cancels a still-queued request). *)
      if site_id = 0 then Lock_mgr.release_all t.global_locks ~txn:et;
      (match Hashtbl.find_opt site.prepared et with
      | None ->
          (* Either we voted no (nothing held) or our prepare is still
             queued on locks; tombstone aborts so the late grant releases. *)
          if not commit then Hashtbl.replace site.aborted et ()
      | Some ops ->
          Hashtbl.remove site.prepared et;
          if commit then begin
            let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
            if Trace.on trace then
              Trace.emit trace ~time:(Engine.now t.env.engine)
                (Trace.Mset_applied
                   { et; site = site.id; n_ops = List.length ops; order = None });
            Prof.span t.env.Intf.obs.Esr_obs.Obs.prof ~site:site.id Prof.Apply
              (fun () ->
                List.iter
                  (fun (key, op) ->
                    (match Store.apply_unit site.replica.store key op with
                    | Ok () -> ()
                    | Error _ -> invalid_arg "2PC: op failed to apply");
                    Replica.log site.replica ~et ~key op)
                  ops)
          end;
          Lock_mgr.release_all site.locks ~txn:et);
      post t ~src:site_id ~dst:coordinator (Done { et })
  | Done { et } -> coordinator_done t et

(* Same-site messages shortcut the network (a site talking to itself);
   while the site is down they are stashed as durable records and
   replayed at recovery, mirroring what the stable queue does for remote
   traffic. *)
and post t ~src ~dst msg =
  if src = dst then
    if t.sites.(dst).replica.down then
      t.deferred_local <- (dst, msg) :: t.deferred_local
    else receive t ~site:dst msg
  else Squeue.send t.fabric ~src ~dst msg

and coordinator_vote t et yes =
  match Hashtbl.find_opt t.coords et with
  | None -> ()
  | Some coord ->
      if coord.c_decided then ()
      else begin
        if not yes then coord.c_aborted <- true;
        coord.c_votes <- coord.c_votes - 1;
        if coord.c_votes = 0 then begin
          coord.c_decided <- true;
          let commit = not coord.c_aborted in
          if commit then
            coord.c_notify
              (Intf.Committed { committed_at = Engine.now t.env.engine })
          else begin
            t.n_aborted <- t.n_aborted + 1;
            coord.c_notify (Intf.Rejected "2PC: aborted (deadlock vote)")
          end;
          (* Phase 2: route the decision to every participant. *)
          send_decision t coord ~commit
        end
      end

(* Decisions go to every participant — plus the lock service at site 0,
   which must release the ET's global locks even when it replicates none
   of the touched shards. *)
and send_decision t coord ~commit =
  let msg dst =
    post t ~src:coord.c_site ~dst
      (Decision { et = coord.c_et; commit; coordinator = coord.c_site })
  in
  if coord.c_parts.(0) <> 0 then msg 0;
  Array.iter msg coord.c_parts

and coordinator_done t et =
  match Hashtbl.find_opt t.coords et with
  | None -> ()
  | Some coord ->
      coord.c_acks <- coord.c_acks - 1;
      if coord.c_acks = 0 then Hashtbl.remove t.coords et

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
                 replica = Replica.make env ~site:id;
                 locks = Lock_mgr.create ~table:Lock_table.standard ();
                 prepared = Hashtbl.create 16;
                 aborted = Hashtbl.create 16;
                 waiting = [];
               });
         fabric;
         coords = Hashtbl.create 32;
         deferred_local = [];
         global_locks = Lock_mgr.create ~table:Lock_table.standard ();
         n_updates = 0;
         n_queries = 0;
         n_aborted = 0;
         n_lock_waits = 0;
       })
  in
  Lazy.force t

let intent_to_op = function
  | Intf.Set (k, v) -> (k, Op.Write v)
  | Intf.Add (k, d) -> (k, Op.Incr d)
  | Intf.Mul (k, f) -> (k, Op.Mult f)

let submit_update t ~origin intents notify =
  if t.sites.(origin).replica.down then
    notify (Intf.Rejected "origin site down")
  else if intents = [] then notify (Intf.Rejected "empty update ET")
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
    (* Participants: the union of the touched shards' replica sets (keys
       interned here so every later lookup agrees on the shard). *)
    let parts =
      let c = t.dests in
      Sharding.Dests.reset c;
      List.iter
        (fun (key, _) ->
          Sharding.Dests.add_id c (Keyspace.intern t.env.Intf.keyspace key))
        ops;
      let arr = Array.make (Sharding.Dests.count c) 0 in
      let i = ref 0 in
      Sharding.Dests.iter c (fun s ->
          arr.(!i) <- s;
          incr i);
      arr
    in
    let votes = Array.length parts in
    (* Every participant acks its decision, and so does the lock service
       at site 0 when it is not itself a participant. *)
    let acks = votes + if parts.(0) = 0 then 0 else 1 in
    let coord =
      {
        c_et = et;
        c_site = origin;
        c_ops = ops;
        c_parts = parts;
        c_votes = votes;
        c_acks = acks;
        c_aborted = false;
        c_decided = false;
        c_notify = notify;
      }
    in
    Hashtbl.replace t.coords et coord;
    (* Phase 0: serialize against other update ETs at the lock service;
       the prepares fan out once the global locks are granted. *)
    post t ~src:origin ~dst:0 (Lock_req { et; keys = List.map fst ops; coordinator = origin });
    (* Presumed abort on timeout: covers distributed deadlocks (no global
       wait-for graph exists) and partitions that outlast patience. *)
    ignore
      (Engine.schedule t.env.engine ~delay:t.env.Intf.config.Intf.twopc_timeout
         (fun () ->
           if not coord.c_decided then begin
             coord.c_decided <- true;
             t.n_aborted <- t.n_aborted + 1;
             coord.c_notify (Intf.Rejected "2PC: aborted (timeout)");
             send_decision t coord ~commit:false
           end))
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  ignore epsilon;
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let started_at = Engine.now t.env.engine in
  let degraded () =
    (* Graceful failure: a crashed site answers from its last image,
       flagged degraded (2PC's normal path is always consistent). *)
    k
      {
        Intf.values =
          List.map (fun key -> (key, Store.get site.replica.store key)) keys;
        charged = 0;
        forced = 0;
        consistent_path = false;
        started_at;
        served_at = Engine.now t.env.engine;
      }
  in
  if site.replica.down then degraded ()
  else begin
    let rec attempt wq =
      if wq.wq_done then ()
      else begin
        let et = t.env.Intf.next_et () in
        wq.wq_et <- et;
        let requests = List.map (fun key -> (key, Lock_table.R, None)) keys in
        acquire_all t site.locks ~txn:et requests
          ~ok:(fun () ->
            if wq.wq_done then Lock_mgr.release_all site.locks ~txn:et
            else begin
              wq.wq_done <- true;
              site.waiting <- List.filter (fun w -> w != wq) site.waiting;
              let values =
                List.map
                  (fun key ->
                    Replica.log site.replica ~et ~key Op.Read;
                    (key, Store.get site.replica.store key))
                  keys
              in
              Lock_mgr.release_all site.locks ~txn:et;
              k
                {
                  Intf.values;
                  charged = 0;
                  forced = 0;
                  consistent_path = true;
                  started_at;
                  served_at = Engine.now t.env.engine;
                }
            end)
          ~fail:(fun () ->
            (* Deadlocked against prepared writers: retry after a beat. *)
            ignore (Engine.schedule t.env.engine ~delay:5.0 (fun () -> attempt wq)))
      end
    in
    let rec wq =
      {
        wq_et = 0;  (* set by [attempt] before the first acquisition *)
        wq_done = false;
        wq_fail =
          (fun () ->
            (* Cancel the (possibly queued) lock request so the dead
               query never blocks writers, then answer degraded. *)
            Lock_mgr.release_all site.locks ~txn:wq.wq_et;
            degraded ());
      }
    in
    site.waiting <- wq :: site.waiting;
    attempt wq
  end

let flush _ = ()

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  Replica.crash t.env site.replica ~drop:(fun () ->
      (* Prepared transactions survive (prepared-state-in-the-WAL keeps
         their W-locks held — the classic 2PC blocking window); what dies
         is the volatile wait contexts: queries queued on locks fail
         degraded and their requests are cancelled. *)
      let waiting = site.waiting in
      site.waiting <- [];
      List.iter
        (fun wq ->
          if not wq.wq_done then begin
            wq.wq_done <- true;
            wq.wq_fail ()
          end)
        waiting;
      (* The crashed site was the coordinator of its undecided update
         ETs: presumed abort.  Remote participants learn the abort once
         the stable queue reaches them; the local record is replayed at
         recovery. *)
      let orphaned =
        Hashtbl.fold
          (fun et coord acc ->
            if coord.c_site = site_id && not coord.c_decided then
              (et, coord) :: acc
            else acc)
          t.coords []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (_, coord) ->
          coord.c_decided <- true;
          t.n_aborted <- t.n_aborted + 1;
          coord.c_notify (Intf.Rejected "2PC: aborted (origin site crashed)");
          send_decision t coord ~commit:false)
        orphaned;
      {
        Replica.buffered = 0;
        queries_failed = List.length waiting;
        updates_rejected = List.length orphaned;
      })

let on_recover t ~site:site_id =
  (* After the log replay, the site's own 2PC records that landed while it
     was down. *)
  if Replica.recover t.env t.sites.(site_id).replica then begin
    let mine, others =
      List.partition (fun (s, _) -> s = site_id) (List.rev t.deferred_local)
    in
    t.deferred_local <- List.rev others;
    List.iter (fun (_, msg) -> receive t ~site:site_id msg) mine
  end

let checkpoint t ~site = Replica.cut t.env t.fabric t.sites.(site).replica

let quiescent t = Hashtbl.length t.coords = 0 && t.deferred_local = []
let backlog t = Hashtbl.length t.coords + List.length t.deferred_local

let store t ~site = t.sites.(site).replica.store
let mvstore _ ~site:_ = None
let history t ~site = t.sites.(site).replica.hist
let converged t = Replica.converged t.env (fun site -> t.sites.(site).replica)

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("aborted", float_of_int t.n_aborted);
    ("lock_waits", float_of_int t.n_lock_waits);
  ]

(* 2PC's durable protocol state is the prepared table, not a receipt
   journal, so the WAL fields stay zero. *)
let resources t ~site = Replica.resources t.fabric t.sites.(site).replica
