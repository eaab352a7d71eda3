(** Off-line merging of partition logs (the paper's §5.3 contrast).

    When a network partitions, optimistic 1SR schemes let both sides run
    and reconcile at reconnection time by merging their logs (Davidson's
    survey; Faissol's classes; Blaustein's log transformation; OSCAR's
    weak-consistency updates).  The paper's methods make this machinery
    unnecessary — they control divergence {e while} the partition is in
    force — but the comparison is instructive, so this module implements
    the merge rules the related work describes:

    - operations that commute with every operation on the same object in
      the other log merge cleanly (Faissol classes B/C; OSCAR
      "commutative and associative");
    - timestamped blind writes merge by latest-timestamp-wins (class A;
      OSCAR "overwrite");
    - anything else is a {e conflict}: following the log-transformation
      strategy, the conflicting update ETs of the {e minority} log are
      rolled back entirely (an ET is all-or-nothing) and reported for
      backward recovery / resubmission.

    Only update ETs participate; query actions in the inputs are
    ignored. *)

type outcome = {
  merged : Hist.t;
      (** equivalent serial history: the majority log followed by the
          surviving minority operations *)
  rolled_back : Et.id list;
      (** minority update ETs sacrificed to conflicts, ascending *)
  clean_keys : string list;
      (** keys whose operations merged without conflict *)
  conflict_keys : string list;
      (** keys that forced a rollback *)
}

val merge : majority:Hist.t -> minority:Hist.t -> outcome
(** Merge two partition logs taken from the same initial state.  The
    majority side's operations are all preserved; minority ETs survive
    iff none of their operations conflicts (same key, non-commuting,
    not timestamp-resolvable) with the majority log or with a rolled-back
    sibling operation. *)

val apply : Hist.t -> Esr_store.Store.t
(** Execute a history's update operations against a fresh store (queries
    skipped) — used to validate merge results and by the tests.  Raises
    [Invalid_argument] if an operation fails to apply. *)

val replay :
  ?base:Esr_store.Store.t ->
  keyspace:Esr_store.Keyspace.t ->
  Oplog.t ->
  Esr_store.Store.t
(** {!apply} over a site's column log, by key id: crash recovery's
    rebuild of the image.  Checkpoint + tail-replay recovery hands in a
    copy of the newest snapshot as [base], so the caller owns [base] and
    must not share it.  [keyspace] must be the one the log interns
    through. *)

val equivalent_states : Hist.t -> Hist.t -> bool
(** Whether two histories produce identical stores from scratch. *)
