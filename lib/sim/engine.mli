(** Discrete-event simulation engine.

    Virtual time is a [float] in abstract milliseconds.  An event is
    either a closure ({!schedule}, {!schedule_at}) or a {e port event}
    ({!post}): two small ints for a handler registered once with {!port}.
    A port event allocates no closure and no event record, so
    per-message traffic (network arrivals, stable-queue timers) uses
    ports and closures serve the rest.  [run] executes both kinds in one timestamp order (FIFO among
    ties, whatever the kind), which makes whole-system executions
    deterministic given deterministic event bodies.

    The engine replaces a real async runtime (the container has no Lwt):
    the paper's protocols only care about message *ordering and delay*,
    which virtual time models exactly. *)

type t

type event_id = int
(** An event's schedule sequence number: {!scheduled} read just before
    the event was scheduled or posted.  {!cancel} takes it. *)

type port
(** A handler registered with {!port}. *)

val create : ?hint:int -> unit -> t
(** [hint] sizes the event heap's columns and, at the first closure
    event, the table of closure bodies (default 64); workload drivers
    that know their arrival volume pass it to skip the growth cascade. *)

val set_prof : t -> Esr_obs.Prof.t -> unit
(** Install a host-time profiler: every dispatched event body is then
    recorded as an [Engine_dispatch] phase span (inclusive of nested
    phases).  The engine starts with {!Esr_obs.Prof.disabled}, which
    keeps dispatch allocation-free — the harness installs the run's
    profiler when one is enabled. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative and NaN
    delays raise [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant; times in the past and NaN raise
    [Invalid_argument]. *)

val port : t -> (int -> int -> unit) -> port
(** [port t handler] registers [handler] for {!post}.  An engine holds at
    most 256 ports; registering more raises [Invalid_argument]. *)

val post : t -> delay:float -> port -> int -> int -> unit
(** [post t ~delay p a b] runs [handler a b] of port [p] at
    [now t +. delay], in the same (time, schedule order) sequence as
    closure events.  [a] must lie in [\[0, 2^24)] and [b] in
    [\[0, 2^30)]: the event is packed into one int beside its time.
    Out-of-range arguments and negative or NaN delays raise
    [Invalid_argument]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired, already-cancelled or unknown event is a
    no-op.  Finds the event by a scan of the pending heap. *)

val step : t -> bool
(** Execute the next event.  [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stops (leaving events queued)
    once the next event would fire strictly after [until] and advances the
    clock to [until]. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val processed : t -> int
(** Total events executed so far. *)

val scheduled : t -> int
(** Total events ever scheduled (fired, cancelled, or still pending). *)

val cancelled : t -> int
(** Total events cancelled before firing. *)
