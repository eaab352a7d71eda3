(** Host-time and allocation phase profiler.

    Where {!Trace} records what the *simulation* did on virtual time, a
    {!t} records what the *host* spent executing it: wall-clock spans
    (via [Unix.gettimeofday] — the stdlib carries no monotonic clock, so
    a host clock step during a run can distort one span) and
    [Gc.allocated_bytes] deltas, bucketed into a fixed phase taxonomy:

    - [Engine_dispatch]: one simulator event body, inclusive of whatever
      nested phases it triggers;
    - [Apply]: a replica applying an MSet to its durable log + store;
    - [Propagate]: a method constructing and enqueueing outbound MSets;
    - [Net_delivery]: a delivered message's callback;
    - [Wal_append]: a durable receipt-journal append;
    - [Replay]: crash recovery replaying a durable log.

    The discipline mirrors {!Trace}: a disabled profiler allocates
    nothing, every accessor on it returns a zero, and instrumented sites
    guard with {!on} so simulation behaviour — and therefore every
    deterministic output — is byte-identical with profiling off.  Since
    the profiler only *reads* host clocks and GC counters, behaviour is
    identical with it on, too (the qcheck invisibility property in
    test_prof.ml checks exactly this).

    Per-phase aggregates are always kept; recent spans additionally land
    in a bounded ring for the Perfetto host-time track and the profile
    dump.  Every span an enabled profiler records is also added to
    process-wide phase totals, so the timed bench sweep can total phases
    across every harness an experiment created without keeping any of
    them alive ({!reset_totals} / {!totals}). *)

type phase =
  | Engine_dispatch
  | Apply
  | Propagate
  | Net_delivery
  | Wal_append
  | Replay

val all_phases : phase list
val phase_name : phase -> string
(** ["engine_dispatch"], ["apply"], ["propagate"], ["net_delivery"],
    ["wal_append"], ["replay"]. *)

val phase_of_name : string -> phase option

type agg = { count : int; seconds : float; alloc_bytes : float }

type span = {
  sp_phase : phase;
  sp_site : int;  (** -1 when the phase has no site *)
  sp_start : float;  (** host seconds since the profiler's epoch *)
  sp_dur : float;
  sp_bytes : float;
}

type t

val disabled : t
(** The shared always-off profiler. *)

val make : ?span_capacity:int -> enabled:bool -> unit -> t
(** [span_capacity] (default [16384]) bounds the span ring.
    [make ~enabled:false ()] returns {!disabled}. *)

val on : t -> bool
(** Fast-path guard, like {!Trace.on}, for per-event paths that build no
    closure: [if Prof.on p then begin let t0 = Prof.start p and a0 =
    Prof.alloc0 p in work (); Prof.record p phase ~t0 ~a0 end else work ()].
    Code that already holds a thunk uses {!span} instead. *)

val span : t -> site:int -> phase -> (unit -> 'a) -> 'a
(** [span p ~site phase f] runs [f ()] and, when [p] is enabled, records
    it as one [phase] span at [site].  Disabled, it is exactly [f ()]:
    nothing is allocated beyond the thunk the caller already built. *)

val start : t -> float
(** Host seconds ([Unix.gettimeofday]); [0.] when disabled. *)

val alloc0 : t -> float
(** [Gc.allocated_bytes]; [0.] when disabled. *)

val record : t -> ?site:int -> phase -> t0:float -> a0:float -> unit
(** Close a span opened by {!start}/{!alloc0}: adds the wall-clock and
    allocation deltas to the phase aggregate and appends one ring span.
    No-op when disabled. *)

val agg : t -> phase -> agg
val aggs : t -> (phase * agg) list
(** Every phase, in {!all_phases} order (zero aggregates included). *)

val spans : t -> span list
val iter_spans : t -> (span -> unit) -> unit
(** Oldest to newest. *)

val span_count : t -> int

(** {2 Sweep totals} *)

val reset_totals : unit -> unit
(** Zero the process-wide totals.  The timed bench sweep calls this
    before each profiled experiment so {!totals} is per-experiment. *)

val totals : unit -> (phase * agg) list
(** Per-phase sums of every span any enabled profiler recorded since the
    last {!reset_totals}, in {!all_phases} order. *)

(** {2 Exports} *)

val chrome_events : t -> string list
(** Chrome trace_event objects for the host-time track — pid 1 (the
    virtual-time trace is pid 0), one named thread per phase, "X" spans
    in host microseconds since the profiler epoch.  Splice in through
    the [extra] of {!Trace.chrome_writer}'s close. *)

type dump = {
  d_phases : (phase * agg) list;
  d_spans : span list;
  d_spans_dropped : int;  (** spans evicted because the ring wrapped *)
}

val schema : string
(** ["esr-profile/1"]. *)

val dump : t -> dump

val write_json : out_channel -> dump -> unit
(** One [esr-profile/1] object: per-phase aggregates plus the span ring
    ([[phase, site, start_s, dur_s, alloc_bytes]] rows, one per line).
    [write_json oc (dump t)] writes [t]. *)

val dump_of_json : string -> (dump, string) result
(** Parse a {!write_json} document (whole file contents).  Every field
    is required, phase names must be known and every span row must have
    the five cells; the [Error] names the field that is not. *)
