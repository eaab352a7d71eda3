(** Declarative, virtual-time fault schedules.

    A schedule is a time-ordered list of fault actions — site crashes and
    recoveries, network partitions and heals — that an injector arms onto
    the simulation {!Esr_sim.Engine} before a run starts.  Every action
    fires at its virtual time through {!Esr_sim.Net}'s fault primitives
    (which trace the injection through {!Esr_obs}), and crash/recover
    actions additionally invoke the caller's hooks so the replica-control
    method under test can drop its volatile state and run recovery.

    Schedules have a compact textual form (the [--faults] DSL):

    {v crash@400:2; recover@900:2; partition@1000:0 1|2 3; heal@1500 v}

    — steps separated by [';'], each [kind@time[:arg]].  [crash]/[recover]
    take a site id; [partition] takes groups of sites separated by ['|']
    (members separated by spaces or commas; sites left out of every group
    form one implicit leftover group, as in {!Esr_sim.Net.partition});
    [heal] takes no argument. *)

type action =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal

type step = { at : float;  (** virtual ms *) action : action }

type t
(** A validated schedule: steps in non-decreasing time order. *)

val empty : t
val steps : t -> step list
val is_empty : t -> bool

val make : step list -> t
(** Sort by time (stable, so equal-time steps keep list order). *)

val validate : ?checkpoint:float -> sites:int -> t -> (unit, string) result
(** Check every referenced site is in [[0, sites)], partition groups do
    not repeat a site, and times are non-negative and finite.  With
    [checkpoint] (a cut interval in virtual ms), additionally reject any
    crash scheduled at the {e exact} virtual time of a checkpoint cut (a
    positive multiple of the interval): the cut/crash interleaving at an
    identical timestamp would be decided by engine scheduling order, so
    the schedule must move the crash off the cut time instead.  Nemesis
    schedules draw crash times from a continuous PRNG, so they only
    collide if the caller picks a commensurate interval on purpose. *)

val all_clear : t -> bool
(** Whether the schedule leaves the system whole at the end: every crashed
    site has a later recover, and any partition is followed by a heal.
    The convergence property is only guaranteed for all-clear schedules. *)

val faulty : t -> float -> bool
(** [faulty t time]: whether a fault is in effect at virtual [time] —
    some site crashed or a partition standing.  A step takes effect at
    its own time, so a crash at [a] recovered at [b] is faulty over
    [\[a, b)]. *)

val clear_time : t -> float
(** Virtual time of the last step (0 for an empty schedule). *)

val pp : Format.formatter -> t -> unit

val to_spec : t -> string
(** Render in the [--faults] DSL; [of_spec] parses it back exactly. *)

val of_spec : string -> (t, string) result

val action_label : action -> string
(** Compact one-step label in the [--faults] DSL vocabulary
    (["crash:2"], ["partition:0,1|2,3"], ...). *)

val inject :
  ?on_crash:(int -> unit) ->
  ?on_recover:(int -> unit) ->
  ?annotate:(time:float -> string -> unit) ->
  Esr_sim.Engine.t ->
  Esr_sim.Net.t ->
  t ->
  unit
(** Arm every step on the engine.  At fire time a [Crash site] calls
    {!Esr_sim.Net.crash} and then [on_crash site] (volatile-state wipe);
    a [Recover site] calls {!Esr_sim.Net.recover} — which kicks the
    stable-queue retransmission hooks — and then [on_recover site]
    (durable-log replay and catch-up).  [Partition]/[Heal] map onto the
    corresponding {!Esr_sim.Net} calls.  All actions are traced by the
    network layer; [annotate], when given, is additionally called at each
    step's fire time with its {!action_label} (the harness points it at
    {!Esr_obs.Series.annotate} so fault windows land in the series
    dump). *)
