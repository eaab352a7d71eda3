(** QUORUM — synchronous baseline in the weighted-voting style
    (Gifford [15], simplified to version-number voting à la Thomas).

    Every copy carries a version number.  An update reads versions from a
    write quorum [w], picks [max+1], and writes value+version back to [w]
    sites; a query reads from a read quorum [r] and returns the
    highest-version value.  Both are a majority of the key's [n] copies,
    so [r + w > n]: every read quorum intersects every write quorum, and
    queries always see the latest committed update.  Both operations cost
    at least one WAN round trip and stall whenever a quorum is
    unreachable — the availability/latency cost the paper's asynchronous
    methods avoid.

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
module Squeue = Esr_squeue.Squeue
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

type write = { wid : int; et : Et.id; key : string; value : Value.t; version : version }

type msg =
  | Version_req of { rid : int; et : Et.id; key : string; requester : int }
  | Version_reply of { rid : int; key : string; version : version; value : Value.t }
  | Write_req of write
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

type t = {
  k : msg Replica.t;
  versions : (string, version) Hashtbl.t array;
      (* per site, durable: version numbers live with the data, written
         atomically with each install *)
  reads : (int, read_round) Hashtbl.t;
  writes : (int, write_round) Hashtbl.t;
  majority : int;  (* read and write quorum: most of a key's copies *)
  mutable next_round : int;
}

let meta =
  {
    Intf.name = "QUORUM";
    family = Intf.Synchronous;
    restriction = "quorum intersection";
    async_propagation = "None";
    sorting_time = "at access";
  }

let local_version versions key =
  Option.value (Hashtbl.find_opt versions key) ~default:version_zero

(* Install a newer version: value and version number, atomically. *)
let install versions (r : Replica.site) w =
  Hashtbl.replace versions w.key w.version;
  let id = Store.intern r.store w.key in
  Store.set_id r.store id w.value;
  Replica.log_id r ~et:w.et ~id (Op.Write w.value)

let post t ~src ~dst msg = Replica.post t.k ~src ~dst msg

let receive t ~site:site_id msg =
  let versions = t.versions.(site_id) in
  match msg with
  | Version_req { rid; et; key; requester } ->
      let value = Replica.read t.k ~site:site_id ~et key in
      post t ~src:site_id ~dst:requester
        (Version_reply
           { rid; key; version = local_version versions key; value })
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
  | Write_req w ->
      if version_compare w.version (local_version versions w.key) > 0 then
        Replica.apply t.k ~site:site_id ~et:w.et ~n_ops:1 ~order:(-1) install
          versions t.k.sites.(site_id) w;
      (* Acks flow back to the writer regardless: the quorum counts
         participation, not freshness. *)
      post t ~src:site_id ~dst:w.version.writer (Write_ack { wid = w.wid })
  | Write_ack { wid } -> (
      match Hashtbl.find_opt t.writes wid with
      | None -> ()
      | Some round ->
          round.w_acks <- round.w_acks + 1;
          if round.w_acks >= round.w_needed then begin
            Hashtbl.remove t.writes wid;
            round.w_done ()
          end)

(* Round fan-out: the key's replica set — quorums intersect within the
   replica set, which is every site under the all-sites map. *)
let fan_key t key f =
  let sh = t.k.env.Intf.sharding in
  Array.iter f
    (Sharding.replicas sh
       (Sharding.shard_of_id sh (Keyspace.find t.k.env.Intf.keyspace key)))

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
  let req = Version_req { rid; et; key; requester = origin } in
  fan_key t key (fun dst -> post t ~src:origin ~dst req)

let write_round t ~origin ~et ~key ~value ~version ~done_ ~fail =
  let wid = t.next_round in
  t.next_round <- wid + 1;
  Hashtbl.replace t.writes wid
    {
      w_origin = origin;
      w_needed = t.majority;
      w_acks = 0;
      w_done = done_;
      w_fail = fail;
    };
  (* The write fan-out is QUORUM's update propagation. *)
  let req = Write_req { wid; et; key; value; version } in
  Prof.span t.k.env.Intf.obs.Esr_obs.Obs.prof ~site:origin Prof.Propagate
    (fun () -> fan_key t key (fun dst -> post t ~src:origin ~dst req))

let drop t ~site:site_id =
  (* The rounds this site coordinates are volatile: queries answer
     degraded, updates report rejection (their writes may still land
     at a quorum — the classic uncertain outcome).  Straggler replies
     arriving after recovery find no round and are ignored. *)
  let my_reads = Replica.orphans t.reads (fun r -> r.r_origin = site_id)
  and my_writes =
    Replica.orphans t.writes (fun w -> w.w_origin = site_id)
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
  }

(* Versions live with the data; there is no receipt journal, so the WAL
   fields stay zero. *)
let create (env : Intf.env) =
  (* Quorums live inside each key's replica set: intersection must hold
     among the [factor] copies, which are all sites under the all-sites
     map. *)
  let copies = Sharding.factor env.Intf.sharding in
  let majority = (copies / 2) + 1 in
  Replica.create env ~mode:Squeue.Unordered ~receive ~drop (fun k ->
      {
        k;
        versions = Array.init env.Intf.sites (fun _ -> Hashtbl.create 32);
        reads = Hashtbl.create 32;
        writes = Hashtbl.create 32;
        majority;
        next_round = 0;
      })

let kernel t = Replica.Any t.k

let refusal = function
  | [ Intf.Set _ ] | [] -> None
  | [ (Intf.Add _ | Intf.Mul _) ] ->
      Some
        "QUORUM: read-modify-write intents need distributed locking; only \
         single-key Set is supported"
  | _ :: _ :: _ -> Some "QUORUM: multi-key update ETs are not atomic here"

let submit_update t ~origin intents notify =
  if Replica.admit t.k ~origin ?refused:(refusal intents) intents notify then
    match intents with
    | [ Intf.Set (key, value) ] ->
        (* Pin the key's shard before routing: both rounds and every later
           access must agree on the replica set. *)
        ignore (Keyspace.intern t.k.env.Intf.keyspace key);
        let et = t.k.env.Intf.next_et () in
        Replica.enqueued t.k ~et ~origin Intf.intent_key intents;
        let fail () =
          (* The outcome is uncertain (a quorum may still install the
             write) but the coordinating site is gone: report rejection. *)
          notify (Intf.Rejected "origin site crashed");
          true
        in
        (* Round 1: learn the highest version from a write quorum. *)
        read_round t ~origin ~et ~key ~needed:t.majority ~update:true ~fail
          ~done_:(fun (best_version, _) ->
            let seq = t.next_round in
            t.next_round <- seq + 1;
            let version = { v = best_version.v + 1; writer = origin; seq } in
            (* Round 2: install value+version at a write quorum. *)
            write_round t ~origin ~et ~key ~value ~version ~fail
              ~done_:(fun () -> Replica.commit t.k notify))
    | _ -> ()  (* [admit] refused every other shape *)

let submit_query t ~site:site_id ~keys ~epsilon:_ k =
  let et = t.k.env.Intf.next_et () in
  let started_at = Replica.now t.k in
  (* A crashed site answers from its local image, degraded: the quorum
     guarantee needs a live coordinating site. *)
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then begin
    let total = List.length keys in
    let collected = ref [] in
    let finished = ref 0 in
    let failed = ref false in
    let fail () =
      (* One fail per query, even though each key ran its own round. *)
      if !failed then false
      else begin
        failed := true;
        Replica.answer t.k k ~started_at ~charged:0 ~forced:0 ~consistent:false
          (Replica.image t.k ~site:site_id keys);
        true
      end
    in
    List.iter
      (fun key ->
        read_round t ~origin:site_id ~et ~key ~needed:t.majority ~update:false
          ~fail
          ~done_:(fun (_, value) ->
            collected := (key, value) :: !collected;
            incr finished;
            if !finished = total && not !failed then
              Replica.answer t.k k ~started_at ~charged:0 ~forced:0
                ~consistent:true
                (List.sort (fun (a, _) (b, _) -> String.compare a b) !collected)))
      keys
  end

let flush _ = ()

let quiescent t = Hashtbl.length t.reads = 0 && Hashtbl.length t.writes = 0
let backlog t = Hashtbl.length t.reads + Hashtbl.length t.writes

let stats t = Replica.stats t.k [ ("rejected", float_of_int t.k.rejected) ]
