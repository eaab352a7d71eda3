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
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Prof = Esr_obs.Prof

type msg =
  | Lock_req of { et : Et.id; keys : string list; coordinator : int }
      (** global-lock acquisition at the lock-service site (site 0) *)
  | Lock_granted of { et : Et.id }
  | Prepare of { et : Et.id; ops : (string * Op.t) list; coordinator : int }
  | Vote of { et : Et.id; yes : bool }
  | Decision of { et : Et.id; commit : bool; prepare_sent : bool; coordinator : int }
      (** [prepare_sent]: the coordinator sent this site a Prepare *)
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
  mutable c_prepared : bool;  (* the Prepares have gone out *)
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

(* A participant's record of one update ET, from its Prepare's arrival
   to its Decision.  An abort that overtakes a Prepare still in flight
   leaves [Overtaken] instead, and that Prepare's arrival consumes it. *)
type part =
  | Voting  (* W-locks still queued, or the vote was no *)
  | Prepared of (string * Op.t) list  (* locked, and voted yes *)
  | Overtaken

type site = {
  id : int;
  replica : Replica.site;  (* durable log, store image, up/down *)
  locks : Lock_mgr.t;
      (* prepared W-locks are durable (classic prepared-state-in-the-WAL);
         query R-requests are cancelled at crash, so the table never holds
         volatile state across an outage *)
  parts : (Et.id, part) Hashtbl.t;  (* durable *)
  mutable waiting : waiting_q list;
}

type t = {
  k : msg Replica.t;
  sites : site array;
  coords : (Et.id, coord_state) Hashtbl.t;
  global_locks : Lock_mgr.t;
      (* the lock service at site 0: serializes update ETs globally, in
         sorted key order, so update/update distributed deadlocks cannot
         form (primary-site 2PL à la Alsberg–Day) *)
  late_reqs : (Et.id, unit) Hashtbl.t;
      (* ETs decided before their Lock_req reached the lock service *)
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

let post t ~src ~dst msg = Replica.post t.k ~src ~dst msg

let rec receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Lock_req { et; _ } when Hashtbl.mem t.late_reqs et ->
      (* The decision overtook this request: lock nothing. *)
      Hashtbl.remove t.late_reqs et
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
            coord.c_prepared <- true;
            Prof.span t.k.env.Intf.obs.Esr_obs.Obs.prof ~site:coord.c_site
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
  | Prepare { et; _ } when Hashtbl.mem site.parts et ->
      (* The abort overtook this Prepare: nothing to lock or vote on. *)
      Hashtbl.remove site.parts et
  | Prepare { et; ops; coordinator } ->
      (* A participant locks, logs and applies only the ops of the shards
         it replicates (it joined the union for at least one of them). *)
      let ops =
        List.filter
          (fun (key, _) ->
            Sharding.replicates_id t.k.env.Intf.sharding ~site:site_id
              ~id:(Keyspace.find t.k.env.Intf.keyspace key))
          ops
      in
      let requests =
        List.map (fun (key, op) -> (key, Lock_table.W, Some op)) ops
      in
      (* A grant or refusal that lands while an abort releases the locks
         finds the record gone and stays silent. *)
      let vote yes =
        if Hashtbl.find_opt site.parts et = Some Voting then begin
          if yes then Hashtbl.replace site.parts et (Prepared ops);
          post t ~src:site_id ~dst:coordinator (Vote { et; yes })
        end
      in
      Hashtbl.replace site.parts et Voting;
      acquire_all t site.locks ~txn:et requests
        ~ok:(fun () -> vote true)
        ~fail:(fun () -> vote false)
  | Vote { et; yes } -> coordinator_vote t et yes
  | Decision { et; commit; prepare_sent; coordinator } ->
      (* The lock service lives at site 0: any decision ends the update
         ET's global locks (release also cancels a still-queued request).
         A Lock_req is always sent before the decision, so an ET on no
         global key has its request still in flight. *)
      if site_id = 0 then
        if Lock_mgr.active t.global_locks ~txn:et then
          Lock_mgr.release_all t.global_locks ~txn:et
        else Hashtbl.replace t.late_reqs et ();
      (match Hashtbl.find_opt site.parts et with
      | None ->
          (* An abort before this site's Prepare arrived: that Prepare, if
             one is on its way, must not lock anything. *)
          if prepare_sent then Hashtbl.replace site.parts et Overtaken
      | Some part ->
          Hashtbl.remove site.parts et;
          (match part with
          | Prepared ops when commit ->
              Replica.apply t.k ~site:site_id ~et ~n_ops:(List.length ops)
                ~order:(-1) Replica.apply_ops site.replica et ops
          | Prepared _ | Voting | Overtaken -> ());
          (* Frees the prepared locks, or cancels a prepare still queued. *)
          Lock_mgr.release_all site.locks ~txn:et);
      post t ~src:site_id ~dst:coordinator (Done { et })
  | Done { et } -> coordinator_done t et

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
          if commit then Replica.commit t.k coord.c_notify
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
  let msg ~prepare_sent dst =
    post t ~src:coord.c_site ~dst
      (Decision { et = coord.c_et; commit; prepare_sent; coordinator = coord.c_site })
  in
  if coord.c_parts.(0) <> 0 then msg ~prepare_sent:false 0;
  Array.iter (msg ~prepare_sent:coord.c_prepared) coord.c_parts

and coordinator_done t et =
  match Hashtbl.find_opt t.coords et with
  | None -> ()
  | Some coord ->
      coord.c_acks <- coord.c_acks - 1;
      if coord.c_acks = 0 then Hashtbl.remove t.coords et

(* After the log replay, the kernel delivers the site's own 2PC records
   that landed while it was down: recovery needs no hook of 2PC's. *)
let drop t ~site:site_id =
  let site = t.sites.(site_id) in
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
    Replica.orphans t.coords (fun coord ->
        coord.c_site = site_id && not coord.c_decided)
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
  }

(* 2PC's durable protocol state is the participant records, not a receipt
   journal, so the WAL fields stay zero. *)
let create (env : Intf.env) =
  Replica.create env ~mode:Squeue.Unordered ~receive ~drop (fun k ->
      {
        k;
        sites =
          Array.map
            (fun replica ->
              {
                id = replica.Replica.site;
                replica;
                locks = Lock_mgr.create ~table:Lock_table.standard ();
                parts = Hashtbl.create 16;
                waiting = [];
              })
            k.Replica.sites;
        coords = Hashtbl.create 32;
        global_locks = Lock_mgr.create ~table:Lock_table.standard ();
        late_reqs = Hashtbl.create 8;
        n_aborted = 0;
        n_lock_waits = 0;
      })

let kernel t = Replica.Any t.k

let submit_update t ~origin intents notify =
  if Replica.admit t.k ~origin intents notify then begin
    let et = t.k.env.Intf.next_et () in
    let ops = List.map Intf.op_of_intent intents in
    Replica.enqueued t.k ~et ~origin fst ops;
    (* Participants: the union of the touched shards' replica sets (keys
       interned here so every later lookup agrees on the shard). *)
    let parts = Replica.participants t.k fst ops in
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
        c_prepared = false;
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
      (Engine.schedule t.k.env.engine ~delay:t.k.env.Intf.config.Intf.twopc_timeout
         (fun () ->
           if not coord.c_decided then begin
             coord.c_decided <- true;
             t.n_aborted <- t.n_aborted + 1;
             coord.c_notify (Intf.Rejected "2PC: aborted (timeout)");
             send_decision t coord ~commit:false
           end))
  end

let submit_query t ~site:site_id ~keys ~epsilon:_ k =
  let site = t.sites.(site_id) in
  let started_at = Replica.now t.k in
  (* A crashed site answers from its last image, degraded: 2PC's normal
     path is always consistent. *)
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then begin
    let rec attempt wq =
      if wq.wq_done then ()
      else begin
        let et = t.k.env.Intf.next_et () in
        wq.wq_et <- et;
        let requests = List.map (fun key -> (key, Lock_table.R, None)) keys in
        acquire_all t site.locks ~txn:et requests
          ~ok:(fun () ->
            if wq.wq_done then Lock_mgr.release_all site.locks ~txn:et
            else begin
              wq.wq_done <- true;
              site.waiting <- List.filter (fun w -> w != wq) site.waiting;
              let values = Replica.read_all t.k ~site:site_id ~et keys in
              Lock_mgr.release_all site.locks ~txn:et;
              Replica.answer t.k k ~started_at ~charged:0 ~forced:0
                ~consistent:true values
            end)
          ~fail:(fun () ->
            (* Deadlocked against prepared writers: retry after a beat. *)
            ignore (Engine.schedule t.k.env.engine ~delay:5.0 (fun () -> attempt wq)))
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
            Replica.answer t.k k ~started_at ~charged:0 ~forced:0
              ~consistent:false (Replica.image t.k ~site:site_id keys));
      }
    in
    site.waiting <- wq :: site.waiting;
    attempt wq
  end

let flush _ = ()

(* Participant records and late-request marks count: one left behind
   would keep a run from settling. *)
let backlog t =
  Array.fold_left
    (fun n site -> n + Hashtbl.length site.parts)
    (Hashtbl.length t.coords + Hashtbl.length t.late_reqs + List.length t.k.deferred)
    t.sites

let quiescent t = backlog t = 0

let stats t =
  Replica.stats t.k
    [
      ("aborted", float_of_int t.n_aborted);
      ("lock_waits", float_of_int t.n_lock_waits);
    ]
