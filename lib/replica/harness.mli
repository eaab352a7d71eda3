(** Replicated-system harness.

    Wires an engine, a network, and one replica-control method together,
    and knows how to drive the whole system to quiescence — the state in
    which the paper's convergence guarantee applies ("replicas converge
    to the same 1SR value when the update MSets queued at individual
    sites are processed").

    The harness owns the run's observability bundle ({!Esr_obs.Obs.t}):
    every layer below it (engine, network, stable queues, the method)
    registers its counters in the bundle's metrics registry, and — when
    tracing is enabled — records events into its trace sink keyed on
    virtual time.  Update and query lifecycles are traced here, wrapping
    the submitted callbacks. *)

type t

val create :
  ?config:Intf.config ->
  ?net_config:Esr_sim.Net.config ->
  ?seed:int ->
  ?store_hint:int ->
  ?engine_hint:int ->
  ?sharding:Esr_store.Sharding.t ->
  ?obs:Esr_obs.Obs.t ->
  ?checkpoint:Checkpoint.config ->
  sites:int ->
  method_name:string ->
  unit ->
  t
(** Build a fresh simulated system.  [seed] (default 42) makes the whole
    run deterministic.  [method_name] is resolved by {!Registry.make}.
    [store_hint] (expected keyspace size) and [engine_hint] (expected
    event volume) pre-size the keyspace and the event heap.
    [sharding] selects the replica placement map (default: full
    replication, {!Esr_store.Sharding.full}); it must be sized for
    [sites].  The divergence probes and the convergence oracle compare a
    site only on the keys it replicates — every key under the default
    map.
    [obs] supplies the observability bundle; by default a fresh one is
    created with tracing and profiling set from
    {!Esr_obs.Obs.default_tracing} and {!Esr_obs.Obs.default_profiling}
    (normally off, which makes instrumentation zero-cost).
    [checkpoint] enables asynchronous checkpointing (DESIGN.md §12): cuts
    are taken at the configured cadence once {!arm_checkpoints} arms
    them, per-site [ckpt/] gauges are registered, and crash recovery
    replays checkpoint + tail.  Omitted (the default), no checkpoint
    state exists and behaviour is byte-identical to earlier builds. *)

val engine : t -> Esr_sim.Engine.t
val net : t -> Esr_sim.Net.t
val env : t -> Intf.env
val system : t -> Replica.any
(** The method's kernel (see {!Replica}). *)

val obs : t -> Esr_obs.Obs.t
val now : t -> float

val run_for : t -> float -> unit
(** Advance virtual time by the given number of milliseconds. *)

val flush : t -> unit
(** Flush the method now: unlike a {!settle_result} round, untraced and
    not counted in [flush_rounds]. *)

val attach_audit : t -> Esr_obs.Audit.t -> unit
(** Tap the auditor into this run's trace sink and bind its [audit/]
    instruments to the registry.  Call after {!create} and before
    {!arm_series} (so the audit columns freeze into the series); the
    trace must be enabled.  Never called on unaudited runs, keeping
    their output byte-identical. *)

val arm_series : t -> until:float -> unit
(** Pre-schedule sampling ticks at the series cadence from now through
    [until].  Pre-scheduling keeps [Engine.run]'s drain semantics: the
    sampler generates no work past the horizon.  It queues one engine
    event per tick, [until / interval] in all, before the run starts, so
    the caller bounds [until] (esrsim counts these ticks with the
    arrivals).  {!settle_result} additionally samples once per drain
    round, which captures the divergence decay after the workload
    ends.  No-op when disabled. *)

val arm_checkpoints : t -> until:float -> unit
(** Pre-schedule checkpoint cuts at every multiple of the checkpoint
    interval from now through [until] — one consistent system-wide cut
    per tick, every site cut at the same virtual instant (each via
    {!Replica.cut}).  Mirrors {!arm_series}: pre-scheduling keeps
    [Engine.run]'s drain semantics, and queues [until / interval] events
    up front.  No-op when the harness was created without
    [?checkpoint]. *)

val inject_faults : t -> Esr_fault.Schedule.t -> unit
(** Arm a fault schedule on the engine before (or while) driving the
    workload: crashes wipe the method's volatile state at the target
    site ({!Replica.crash}), recoveries replay the durable log and
    catch up ({!Replica.recover}); partitions and heals act on the
    network alone.  Raises [Invalid_argument] if the schedule references
    a site outside this system, or — when the run checkpoints — if a
    crash lands on the exact virtual time of a checkpoint cut
    ({!Esr_fault.Schedule.validate}). *)

(** Why {!settle_result} could not drain the system. *)
type stuck_reason =
  | Sites_down of int list  (** crashed sites pin their stable-queue backlog *)
  | Partitioned of int list list  (** standing partition groups *)
  | Protocol_stalled of { rounds : int }
      (** network whole, yet the method is still not quiescent *)

type settle_outcome = Drained | Stuck of stuck_reason

val stuck_reason_to_string : stuck_reason -> string

val settle_result : ?max_rounds:int -> t -> settle_outcome
(** Drain everything: alternate running the event loop and flushing the
    method until both the transport and the protocol are quiescent.
    [Stuck reason] when [max_rounds] (default 10) flush rounds were not
    enough, saying why — a crashed site, a standing partition, or a stall
    in the protocol itself. *)

val run_with_faults :
  ?max_rounds:int ->
  t ->
  schedule:Esr_fault.Schedule.t ->
  workload:(t -> unit) ->
  settle_outcome
(** [inject_faults], run [workload t] (which typically submits updates
    and queries on a virtual-time clock), advance the engine past the
    schedule's {!Esr_fault.Schedule.clear_time}, then {!settle_result}.
    For an all-clear schedule a correct method must yield [Drained] with
    {!converged} [= true] afterwards. *)

val converged : t -> bool
(** All replicas hold equal state ({!Replica.converged}). *)

val submit_update :
  t -> origin:int -> Intf.intent list -> (Intf.update_outcome -> unit) -> unit

val submit_query :
  t ->
  site:int ->
  keys:string list ->
  epsilon:Esr_core.Epsilon.spec ->
  (Intf.query_outcome -> unit) ->
  unit

val store : t -> site:int -> Esr_store.Store.t
val history : t -> site:int -> Esr_core.Hist.t

val stats : t -> Esr_obs.Metrics.entry list
(** Typed snapshot of the whole metrics registry: method counters
    (group ["method"]), network fates (["net"]), stable-queue transport
    (["squeue"]), engine totals (["engine"]) and harness lifecycle
    counters/histograms (["harness"]).  The method's own [(name, value)]
    list, in its order, is [Metrics.alist ~group:"method"] over the
    bundle's registry. *)
