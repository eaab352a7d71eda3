(** Divergence control: a site-local scheduler for interleaved ETs.

    The replica-control methods of {!Esr_replica} apply each MSet
    atomically, so their per-site histories interleave only between ETs.
    This module implements the finer-grained story of the paper's §3.1–
    3.2: several ETs submit their operations {e one at a time} against a
    single site, and a divergence-control discipline decides which
    interleavings are admissible:

    - [Two_phase table] — 2PL with a pluggable compatibility table:
      {!Esr_cc.Lock_table.standard} yields classic serializable
      execution, {!Esr_cc.Lock_table.ordup} implements the paper's
      Table 2 (query reads never block or be blocked),
      {!Esr_cc.Lock_table.commu} implements Table 3 (update/update
      conflicts soften to commutativity checks).  Locks are held to
      commit/abort (strict 2PL); deadlock victims abort and roll back.

    - [Timestamp_esr] — basic timestamp ordering with the paper's ESR
      extension: update operations are rejected (aborting the ET) when
      stale, while {e query} reads that would be rejected under strict
      TO may instead be admitted by charging the query's inconsistency
      counter, one unit per out-of-order read (§3.1's "the divergence
      control increments the inconsistency counter and decides whether
      to allow the read").

    The scheduler journals undo records, so aborted ETs leave no effect,
    and emits the execution history of committed ETs for the
    {!Esr_core.Esr_check} checker — the property tests close the loop by
    asserting that every schedule either discipline admits is
    ε-serializable. *)

type discipline =
  | Two_phase of Esr_cc.Lock_table.t
  | Timestamp_esr

type t

val create : ?discipline:discipline -> Esr_store.Store.t -> t
(** [discipline] defaults to [Two_phase Lock_table.standard]. *)

val store : t -> Esr_store.Store.t

type handle
(** One in-progress ET. *)

val begin_et :
  t -> kind:Esr_core.Et.kind -> ?epsilon:Esr_core.Epsilon.spec -> unit -> handle
(** [epsilon] (default [Unlimited]) is the inconsistency budget of a
    query ET under [Timestamp_esr]; update ETs ignore it. *)

val kind : handle -> Esr_core.Et.kind
val charged : handle -> int
(** Inconsistency units accumulated so far (query ETs). *)

type status = Running | Waiting | Committed | Aborted

val status : handle -> status

type op_outcome =
  | Executed of Esr_store.Value.t
      (** the value read (reads) or the post-state (updates) *)
  | Wait
      (** blocked on a lock; the callback passed to {!submit} fires when
          the operation eventually executes (or the ET aborts) *)
  | Refused_stale
      (** [Timestamp_esr]: the operation lost the timestamp race; the ET
          has been aborted and rolled back *)
  | Refused_epsilon
      (** query read denied: admitting it would exceed the ET's epsilon;
          the ET stays alive and may retry later or commit with what it
          has *)
  | Refused_deadlock
      (** [Two_phase]: waiting would deadlock; the ET has been aborted *)

val submit :
  t -> handle -> key:string -> Esr_store.Op.t ->
  ?k:(op_outcome -> unit) -> unit -> op_outcome
(** Submit the ET's next operation.  Query ETs may only submit reads
    (raises [Invalid_argument] otherwise).  When the immediate result is
    [Wait], the final outcome is delivered to [k] once the lock is
    granted (as [Executed _]) or the ET is aborted by a deadlock victim
    choice ([Refused_deadlock]). *)

val commit : t -> handle -> unit
(** Finish the ET: release its locks, keep its effects.  Raises
    [Invalid_argument] if it has operations still waiting. *)

val abort : t -> handle -> unit
(** Undo every effect of the ET (reverse order) and release its locks. *)

val history : t -> Esr_core.Hist.t
(** Execution history of {e committed} ETs only, in execution order —
    the log the ESR checker should accept. *)

type counters = {
  committed : int;
  aborted : int;
  deadlock_aborts : int;
  stale_aborts : int;
  epsilon_refusals : int;
  charged_units : int;
}

val counters : t -> counters
