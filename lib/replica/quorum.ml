(** QUORUM — synchronous baseline in the weighted-voting style
    (Gifford [15], simplified to version-number voting à la Thomas).

    Every copy carries a version number.  An update reads versions from a
    write quorum [w], picks [max+1], and writes value+version back to [w]
    sites; a query reads from a read quorum [r] and returns the
    highest-version value.  With [r + w > n] every read quorum intersects
    every write quorum, so queries always see the latest committed
    update.  Both operations cost at least one WAN round trip and stall
    whenever a quorum is unreachable — the availability/latency cost the
    paper's asynchronous methods avoid.

    Simplifications (documented in DESIGN.md): update ETs are single-key
    blind writes (no cross-key atomicity, hence no distributed locks);
    writes are broadcast to all sites but acknowledged by the quorum, so
    replicas converge once the stable queues drain. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type version = { v : int; writer : int; seq : int }
(* [seq] is a per-system unique stamp: two rounds that read the same stale
   version (their version reads stalled across the same partition or crash
   window) produce the same [v] — and with one origin, the same [writer].
   Without a total order every copy keeps whichever write arrives first
   and the replicas diverge. *)

let version_compare a b =
  match Int.compare a.v b.v with
  | 0 -> (
      match Int.compare a.writer b.writer with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let version_zero = { v = 0; writer = -1; seq = -1 }

type msg =
  | Version_req of { rid : int; et : Et.id; key : string; requester : int }
  | Version_reply of { rid : int; key : string; version : version; value : Value.t }
  | Write_req of { wid : int; et : Et.id; key : string; value : Value.t; version : version }
  | Write_ack of { wid : int }

type read_round = {
  r_origin : int;  (* requester site: the round dies with it *)
  r_needed : int;
  mutable r_replies : int;
  mutable r_best : version * Value.t;
  r_done : version * Value.t -> unit;
  r_fail : unit -> bool;
      (* origin crashed: degrade/reject the client; true when this call
         actually notified it (a multi-key query fails only once) *)
  r_update : bool;  (* version round of an update (vs a query read) *)
}

type write_round = {
  w_origin : int;
  w_needed : int;
  mutable w_acks : int;
  w_done : unit -> unit;
  w_fail : unit -> bool;
}

type site = {
  id : int;
  replica : Replica.t;  (* durable log, store image, up/down *)
  versions : (string, version) Hashtbl.t;
      (* durable: version numbers live with the data, written atomically
         with each install *)
}

type t = {
  env : Intf.env;
  sites : site array;
  fabric : msg Squeue.t;
  reads : (int, read_round) Hashtbl.t;
  writes : (int, write_round) Hashtbl.t;
  read_quorum : int;
  write_quorum : int;
  mutable next_round : int;
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_rejected : int;
}

let meta =
  {
    Intf.name = "QUORUM";
    family = Intf.Synchronous;
    restriction = "quorum intersection";
    async_propagation = "None";
    sorting_time = "at access";
  }

let local_version site key =
  Option.value (Hashtbl.find_opt site.versions key) ~default:version_zero

let rec receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Version_req { rid; et; key; requester } ->
      Replica.log site.replica ~et ~key Op.Read;
      post t ~src:site_id ~dst:requester
        (Version_reply
           {
             rid;
             key;
             version = local_version site key;
             value = Store.get site.replica.store key;
           })
  | Version_reply { rid; key = _; version; value } -> (
      match Hashtbl.find_opt t.reads rid with
      | None -> ()  (* straggler after the quorum completed *)
      | Some round ->
          round.r_replies <- round.r_replies + 1;
          let best_version, _ = round.r_best in
          if version_compare version best_version > 0 then
            round.r_best <- (version, value);
          if round.r_replies >= round.r_needed then begin
            Hashtbl.remove t.reads rid;
            round.r_done round.r_best
          end)
  | Write_req { wid; et; key; value; version } ->
      if version_compare version (local_version site key) > 0 then begin
        let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
        if Trace.on trace then
          Trace.emit trace ~time:(Engine.now t.env.engine)
            (Trace.Mset_applied { et; site = site.id; n_ops = 1; order = None });
        Prof.span t.env.Intf.obs.Esr_obs.Obs.prof ~site:site.id Prof.Apply
          (fun () ->
            Hashtbl.replace site.versions key version;
            Store.set site.replica.store key value;
            Replica.log site.replica ~et ~key (Op.Write value))
      end;
      (* Acks flow back to the writer regardless: the quorum counts
         participation, not freshness. *)
      post t ~src:site_id ~dst:version.writer (Write_ack { wid })
  | Write_ack { wid } -> (
      match Hashtbl.find_opt t.writes wid with
      | None -> ()
      | Some round ->
          round.w_acks <- round.w_acks + 1;
          if round.w_acks >= round.w_needed then begin
            Hashtbl.remove t.writes wid;
            round.w_done ()
          end)

and post t ~src ~dst msg =
  if src = dst then receive t ~site:dst msg
  else Squeue.send t.fabric ~src ~dst msg

(* Round fan-out: the key's replica set — quorums intersect within the
   replica set, which is every site under the all-sites map. *)
let fan_key t key f =
  let sh = t.env.Intf.sharding in
  Array.iter f
    (Sharding.replicas sh
       (Sharding.shard_of_id sh (Keyspace.find t.env.Intf.keyspace key)))

let read_round t ~origin ~et ~key ~needed ~update ~done_ ~fail =
  let rid = t.next_round in
  t.next_round <- rid + 1;
  Hashtbl.replace t.reads rid
    {
      r_origin = origin;
      r_needed = needed;
      r_replies = 0;
      r_best = (version_zero, Value.zero);
      r_done = done_;
      r_fail = fail;
      r_update = update;
    };
  fan_key t key (fun dst ->
      post t ~src:origin ~dst (Version_req { rid; et; key; requester = origin }))

let write_round t ~origin ~et ~key ~value ~version ~done_ ~fail =
  let wid = t.next_round in
  t.next_round <- wid + 1;
  Hashtbl.replace t.writes wid
    {
      w_origin = origin;
      w_needed = t.write_quorum;
      w_acks = 0;
      w_done = done_;
      w_fail = fail;
    };
  (* The write fan-out is QUORUM's update propagation. *)
  Prof.span t.env.Intf.obs.Esr_obs.Obs.prof ~site:origin Prof.Propagate
    (fun () ->
      fan_key t key (fun dst ->
          post t ~src:origin ~dst (Write_req { wid; et; key; value; version })))

let create (env : Intf.env) =
  let n = env.Intf.sites in
  (* Quorums live inside each key's replica set: intersection must hold
     among the [factor] copies, which are all sites under the all-sites
     map. *)
  let copies = Sharding.factor env.Intf.sharding in
  let majority = (copies / 2) + 1 in
  let read_quorum = Option.value env.Intf.config.Intf.quorum_reads ~default:majority in
  let write_quorum = Option.value env.Intf.config.Intf.quorum_writes ~default:majority in
  if read_quorum + write_quorum <= copies then
    invalid_arg "Quorum.create: r + w must exceed the number of copies";
  if read_quorum > copies || write_quorum > copies then
    invalid_arg "Quorum.create: a quorum cannot exceed the replication factor";
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
         sites =
           Array.init n (fun id ->
               {
                 id;
                 replica = Replica.make env ~site:id;
                 versions = Hashtbl.create (Stdlib.max 32 env.Intf.store_hint);
               });
         fabric;
         reads = Hashtbl.create 32;
         writes = Hashtbl.create 32;
         read_quorum;
         write_quorum;
         next_round = 0;
         n_updates = 0;
         n_queries = 0;
         n_rejected = 0;
       })
  in
  Lazy.force t

let submit_update t ~origin intents notify =
  match intents with
  | _ when t.sites.(origin).replica.down ->
      notify (Intf.Rejected "origin site down")
  | [ Intf.Set (key, value) ] ->
      t.n_updates <- t.n_updates + 1;
      (* Pin the key's shard before routing: both rounds and every later
         access must agree on the replica set. *)
      ignore (Keyspace.intern t.env.Intf.keyspace key);
      let et = t.env.Intf.next_et () in
      let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
      if Trace.on trace then
        Trace.emit trace ~time:(Engine.now t.env.engine)
          (Trace.Mset_enqueued { et; origin; n_ops = 1; keys = [ key ] });
      let fail () =
        (* The outcome is uncertain (a quorum may still install the write)
           but the coordinating site is gone: report rejection. *)
        notify (Intf.Rejected "origin site crashed");
        true
      in
      (* Round 1: learn the highest version from a write quorum. *)
      read_round t ~origin ~et ~key ~needed:t.write_quorum ~update:true ~fail
        ~done_:(fun (best_version, _) ->
          let seq = t.next_round in
          t.next_round <- seq + 1;
          let version = { v = best_version.v + 1; writer = origin; seq } in
          (* Round 2: install value+version at a write quorum. *)
          write_round t ~origin ~et ~key ~value ~version ~fail
            ~done_:(fun () ->
              notify (Intf.Committed { committed_at = Engine.now t.env.engine })))
  | [] -> notify (Intf.Rejected "empty update ET")
  | [ (Intf.Add _ | Intf.Mul _) ] ->
      t.n_rejected <- t.n_rejected + 1;
      notify
        (Intf.Rejected
           "QUORUM: read-modify-write intents need distributed locking; \
            only single-key Set is supported")
  | _ :: _ :: _ ->
      t.n_rejected <- t.n_rejected + 1;
      notify (Intf.Rejected "QUORUM: multi-key update ETs are not atomic here")

let submit_query t ~site:site_id ~keys ~epsilon k =
  ignore epsilon;
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let et = t.env.Intf.next_et () in
  let started_at = Engine.now t.env.engine in
  let degraded () =
    (* Graceful failure: answer from the local image, flagged degraded
       (the quorum guarantee needs a live coordinating site). *)
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
    let total = List.length keys in
    let collected = ref [] in
    let finished = ref 0 in
    let failed = ref false in
    let fail () =
      (* One fail per query, even though each key ran its own round. *)
      if !failed then false
      else begin
        failed := true;
        degraded ();
        true
      end
    in
    List.iter
      (fun key ->
        read_round t ~origin:site_id ~et ~key ~needed:t.read_quorum ~update:false
          ~fail
          ~done_:(fun (_, value) ->
            collected := (key, value) :: !collected;
            incr finished;
            if !finished = total && not !failed then
              k
                {
                  Intf.values =
                    List.sort (fun (a, _) (b, _) -> String.compare a b) !collected;
                  charged = 0;
                  forced = 0;
                  consistent_path = true;
                  started_at;
                  served_at = Engine.now t.env.engine;
                }))
      keys
  end

let flush _ = ()

let on_crash t ~site:site_id =
  Replica.crash t.env t.sites.(site_id).replica ~drop:(fun () ->
      (* The rounds this site coordinates are volatile: queries answer
         degraded, updates report rejection (their writes may still land
         at a quorum — the classic uncertain outcome).  Straggler replies
         arriving after recovery find no round and are ignored. *)
      let my_reads =
        Hashtbl.fold
          (fun rid r acc ->
            if r.r_origin = site_id then (rid, r) :: acc else acc)
          t.reads []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      and my_writes =
        Hashtbl.fold
          (fun wid w acc ->
            if w.w_origin = site_id then (wid, w) :: acc else acc)
          t.writes []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let queries_failed = ref 0 and updates_rejected = ref 0 in
      List.iter
        (fun (rid, r) ->
          Hashtbl.remove t.reads rid;
          if r.r_fail () then
            if r.r_update then incr updates_rejected else incr queries_failed)
        my_reads;
      List.iter
        (fun (wid, w) ->
          Hashtbl.remove t.writes wid;
          if w.w_fail () then incr updates_rejected)
        my_writes;
      {
        Replica.buffered = 0;
        queries_failed = !queries_failed;
        updates_rejected = !updates_rejected;
      })

let on_recover t ~site = ignore (Replica.recover t.env t.sites.(site).replica)
let checkpoint t ~site = Replica.cut t.env t.fabric t.sites.(site).replica

let quiescent t = Hashtbl.length t.reads = 0 && Hashtbl.length t.writes = 0
let backlog t = Hashtbl.length t.reads + Hashtbl.length t.writes

let store t ~site = t.sites.(site).replica.store
let mvstore _ ~site:_ = None
let history t ~site = t.sites.(site).replica.hist
let converged t = Replica.converged t.env (fun site -> t.sites.(site).replica)

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("rejected", float_of_int t.n_rejected);
  ]

(* Versions live with the data; there is no receipt journal, so the WAL
   fields stay zero. *)
let resources t ~site = Replica.resources t.fabric t.sites.(site).replica
