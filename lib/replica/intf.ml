(** Shared vocabulary of the replica-control methods.

    Every protocol — the paper's four asynchronous methods and the two
    synchronous 1SR baselines — implements {!module-type-S}, so the
    harness, the workload driver, and the bench tables treat them
    uniformly.  The Table 1 metadata ({!meta}) lives on the module, which
    is what lets the bench harness derive the paper's Table 1 from the
    registry instead of hard-coding it. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Epsilon = Esr_core.Epsilon
module Hist = Esr_core.Hist

(** What a client wants an update ET to do, before the method translates
    it into the operations it supports.  Methods whose restriction
    excludes an intent refuse the update (making Table 1's "kind of
    restriction" row executable). *)
type intent =
  | Set of string * Value.t  (** overwrite; RITU turns it into a timestamped blind write *)
  | Add of string * int  (** commutative increment *)
  | Mul of string * int  (** commutative multiplication (COMPE's §4.1 example) *)

let pp_intent ppf = function
  | Set (k, v) -> Format.fprintf ppf "set %s=%a" k Value.pp v
  | Add (k, d) -> Format.fprintf ppf "add %s+=%d" k d
  | Mul (k, f) -> Format.fprintf ppf "mul %s*=%d" k f

let intent_key = function Set (k, _) | Add (k, _) | Mul (k, _) -> k

(** The operation an intent names, for methods without a restriction on
    it. *)
let intent_op = function
  | Set (_, v) -> Op.Write v
  | Add (_, d) -> Op.Incr d
  | Mul (_, f) -> Op.Mult f

let op_of_intent i = (intent_key i, intent_op i)

(** An operation with its key interned at the origin: replicas apply by
    dense id (one array load) instead of re-hashing the key string at
    every site.  The name rides along for the durable log and traces. *)
type iop = { id : int; key : string; op : Op.t }

let iop_key i = i.key

let iop_of_intent keyspace intent =
  let key = intent_key intent in
  { id = Keyspace.intern keyspace key; key; op = intent_op intent }

type update_outcome =
  | Committed of { committed_at : float }
  | Rejected of string

type query_outcome = {
  values : (string * Value.t) list;
  charged : int;  (** inconsistency units accumulated *)
  forced : int;
      (** units charged unconditionally by backward methods (§4.2
          compensations); [charged - forced] stays ≤ the epsilon spec,
          the forced remainder is the documented hazard *)
  consistent_path : bool;  (** true when the query fell back to the SR path *)
  started_at : float;
  served_at : float;
}

(** Per-site durable/volatile footprint, read by the resource probes the
    harness registers (group ["res"] gauges and [res/] series columns).
    All pure reads at sampling cadence; nothing here may perturb the
    simulation.  The cumulative fields ([wal_appended],
    [journal_enqueued]) are monotone even though their current-depth
    counterparts drain, which is what lets the soak experiment chart
    churn as well as standing growth. *)
type resources = {
  log_entries : int;  (** durable Hist operation-log length (append-only) *)
  log_bytes : int;  (** modelled retained bytes of that log *)
  wal_entries : int;  (** receipt-journal records not yet consumed *)
  wal_appended : int;  (** cumulative receipt-journal appends *)
  wal_high_water : int;  (** peak simultaneous receipt-journal records *)
  journal_depth : int;  (** stable-queue journal entries, this site as sender *)
  journal_enqueued : int;  (** cumulative stable-queue appends by this site *)
  store_words : int;  (** live heap words of the materialized store image *)
}

(** Family and Table 1 characteristics of a method. *)
type family = Forward | Backward | Synchronous

let family_to_string = function
  | Forward -> "Forwards"
  | Backward -> "Backwards"
  | Synchronous -> "Synchronous"

type meta = {
  name : string;
  family : family;
  restriction : string;  (** Table 1 "kind of restriction" *)
  async_propagation : string;  (** Table 1 "asynchronous propagation" *)
  sorting_time : string;  (** Table 1 "sorting time" *)
}

(** Virtual ms between successive reads of a multi-key query (lets update
    MSets interleave with the query). *)
let query_step_delay = 1.0

(** Per-run tuning knobs; each method reads the fields it cares about. *)
type config = {
  ordup_ordering : [ `Sequencer | `Lamport ];
  ritu_mode : [ `Single | `Multi ];
  commu_update_limit : int option;
      (** §3.2 update-side lock-counter limit; [None] = unlimited *)
  commu_value_limit : float option;
      (** update-side bound on the pending |delta| per object — the
          "data value changed asynchronously" criterion of §5.1;
          [None] = unlimited *)
  commu_limit_policy : [ `Wait | `Abort ];
  compe_abort_probability : float;
      (** chance the global transaction aborts after optimistic apply *)
  compe_decision_delay : float;
      (** virtual ms between optimistic apply and global commit/abort *)
  retry_backoff : Esr_squeue.Squeue.backoff option;
      (** exponential-backoff policy for stable-queue retransmission;
          [None] keeps {!Esr_squeue.Squeue.create}'s fixed 50 ms
          interval (fault-aware runs install
          {!Esr_squeue.Squeue.default_backoff} so long outages do not
          storm the links) *)
  quorum_reads : int option;  (** read quorum; default majority *)
  quorum_writes : int option;  (** write quorum; default majority *)
  twopc_timeout : float;
      (** coordinator aborts an update ET still undecided after this many
          virtual ms (covers distributed deadlocks and partitions) *)
  quasi_refresh : [ `Immediate | `Periodic of float | `Drift of float ];
      (** QUASI coherency condition ("closeness" spec of quasi-copies,
          §5.2): push every primary update, push dirty keys every τ ms,
          or push a key once its value drifts more than α from the last
          propagated image *)
}

let default_config =
  {
    ordup_ordering = `Sequencer;
    ritu_mode = `Single;
    commu_update_limit = None;
    commu_value_limit = None;
    commu_limit_policy = `Wait;
    compe_abort_probability = 0.0;
    compe_decision_delay = 100.0;
    retry_backoff = None;
    quorum_reads = None;
    quorum_writes = None;
    twopc_timeout = 2_000.0;
    quasi_refresh = `Immediate;
  }

(** Everything a method needs to instantiate a replicated system. *)
type env = {
  engine : Esr_sim.Engine.t;
  net : Esr_sim.Net.t;
  prng : Esr_util.Prng.t;
  sites : int;
  config : config;
  store_hint : int;
      (** expected keyspace size — methods pre-size their per-site store
          cell arrays with it so replicas never resize mid-run *)
  keyspace : Keyspace.t;
      (** run-wide key interner shared by every replica store, so a key's
          dense id is stable across sites and MSets can carry ids *)
  sharding : Sharding.t;
      (** shard -> replica-set placement map; methods route MSets and
          propagation only to the sites replicating the touched shards.
          Defaults to {!Sharding.full}: every site replicates every
          shard, so every site is routed every MSet. *)
  next_et : unit -> Esr_core.Et.id;  (** shared ET id allocator *)
  obs : Esr_obs.Obs.t;
      (** per-run trace sink + metrics registry; methods emit MSet and
          compensation events through it and hand it to their stable
          queues.  Defaults to a fresh bundle with tracing off. *)
  checkpoint : Checkpoint.t option;
      (** asynchronous checkpoint state shared by the method's
          {!S.checkpoint} hook and its recovery path.  [None] (the
          default) disables checkpointing entirely: no cuts are taken,
          logs and journals grow as they always have, and behaviour is
          byte-identical to pre-checkpoint builds. *)
}

let make_env ?(config = default_config) ?(store_hint = 64) ?sharding ?obs
    ?checkpoint ~engine ~net ~prng () =
  let counter = ref 0 in
  let obs = match obs with Some o -> o | None -> Esr_obs.Obs.default () in
  let sites = Esr_sim.Net.sites net in
  let checkpoint =
    Option.map (fun cfg -> Checkpoint.create ~obs ~sites cfg) checkpoint
  in
  let sharding =
    match sharding with
    | Some s ->
        if Sharding.sites s <> sites then
          invalid_arg "Intf.make_env: sharding sized for a different site count";
        s
    | None -> Sharding.full ~sites
  in
  {
    engine;
    net;
    prng;
    sites;
    config;
    store_hint = Stdlib.max 1 store_hint;
    keyspace = Keyspace.create ~hint:store_hint ();
    sharding;
    next_et =
      (fun () ->
        incr counter;
        !counter);
    obs;
    checkpoint;
  }

(** The uniform replica-control method interface. *)
module type S = sig
  type t

  val meta : meta
  val create : env -> t

  val submit_update :
    t -> origin:int -> intent list -> (update_outcome -> unit) -> unit
  (** Asynchronous: the callback fires at commit (or rejection) virtual
      time.  Rejection is immediate when the intents violate the method's
      restriction. *)

  val submit_query :
    t ->
    site:int ->
    keys:string list ->
    epsilon:Epsilon.spec ->
    (query_outcome -> unit) ->
    unit

  val flush : t -> unit
  (** Emit whatever end-of-run traffic quiescence needs (watermark
      heartbeats, pending decisions).  Idempotent. *)

  val quiescent : t -> bool
  (** Protocol-level quiescence (beyond the transport): no buffered MSets
      waiting for order, no undecided provisional updates, no parked
      queries. *)

  val backlog : t -> int
  (** How much in-protocol work is outstanding right now: buffered MSets
      waiting for their order slot, undecided coordinations, parked ETs.
      [quiescent t] implies [backlog t = 0].  Sampled by the
      observability series as [esr/method_backlog]. *)

  val on_crash : t -> site:int -> unit
  (** The site's volatile state is gone: order buffers and provisional
      applies are dropped, parked/active queries at the site fail with a
      degraded outcome, and un-notified update outcomes whose coordinator
      lived at the site are rejected.  Stable state — the per-site durable
      operation log and the stable-queue journals — survives.  Idempotent:
      crashing an already-crashed site is a no-op.  The caller (normally
      {!Esr_fault.Schedule.inject} via {!Harness.run_with_faults}) crashes
      the network layer first, so no messages are delivered in between. *)

  val on_recover : t -> site:int -> unit
  (** Crash recovery: rebuild the site's image by replaying its durable
      operation log (traced as [Recovery_replay]), then resume normal
      processing — the stable-queue backlog redelivers everything that
      was not acknowledged before or during the outage.  When the run
      checkpoints ([env.checkpoint]), replay starts from a copy of the
      site's newest snapshot and folds only the log tail.  Idempotent. *)

  val checkpoint : t -> site:int -> unit
  (** Take an asynchronous checkpoint cut at [site] (see
      {!Checkpoint.cut}): snapshot the site image, truncate the durable
      log behind the cut, and garbage-collect whatever journal records
      the method declares reclaimable (stable-queue dedup records behind
      the delivery watermark; COMPE additionally prunes decided undo-log
      entries).  No-op when [env.checkpoint] is [None] or the site is
      down — a crashed site's next cut happens after it has recovered. *)

  val store : t -> site:int -> Store.t
  (** Site-local single-version state, for convergence checks. *)

  val mvstore : t -> site:int -> Mvstore.t option
  (** RITU-multiversion state when the method keeps one. *)

  val history : t -> site:int -> Hist.t
  (** The operation log the site actually executed, for the ESR checker. *)

  val converged : t -> bool
  (** All replicas hold equal state. *)

  val stats : t -> (string * float) list
  (** Method-specific counters for the experiment tables. *)

  val resources : t -> site:int -> resources
  (** The site's durable/volatile footprint right now.  Pure reads;
      sampled by the [res/] series probes and the group ["res"] gauges.
      Methods without a receipt journal report zero WAL fields. *)
end

type boxed = B : (module S with type t = 'a) * 'a -> boxed

let boxed_flush (B ((module M), sys)) = M.flush sys
let boxed_quiescent (B ((module M), sys)) = M.quiescent sys
let boxed_backlog (B ((module M), sys)) = M.backlog sys
let boxed_on_crash (B ((module M), sys)) ~site = M.on_crash sys ~site
let boxed_on_recover (B ((module M), sys)) ~site = M.on_recover sys ~site
let boxed_checkpoint (B ((module M), sys)) ~site = M.checkpoint sys ~site
let boxed_converged (B ((module M), sys)) = M.converged sys
let boxed_store (B ((module M), sys)) ~site = M.store sys ~site
let boxed_mvstore (B ((module M), sys)) ~site = M.mvstore sys ~site
let boxed_history (B ((module M), sys)) ~site = M.history sys ~site
let boxed_stats (B ((module M), sys)) = M.stats sys
let boxed_resources (B ((module M), sys)) ~site = M.resources sys ~site

let boxed_submit_update (B ((module M), sys)) ~origin intents k =
  M.submit_update sys ~origin intents k

let boxed_submit_query (B ((module M), sys)) ~site ~keys ~epsilon k =
  M.submit_query sys ~site ~keys ~epsilon k
