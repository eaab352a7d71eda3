(** Lock compatibility tables.

    The paper extends standard 2PL with three ET lock classes — [R_u]
    (read by an update ET), [W_u] (write by an update ET), [R_q] (read by
    a query ET) — and gives one compatibility matrix per replica-control
    method: Table 2 for ORDUP and Table 3 for COMMU.  This module encodes
    each matrix as a value so the bench harness can print the tables
    straight out of the implementation, and so {!Lock_mgr} can be
    instantiated with any of them. *)

type mode =
  | R  (** plain read (standard 2PL) *)
  | W  (** plain write (standard 2PL) *)
  | R_u  (** read lock held by an update ET *)
  | W_u  (** write lock held by an update ET *)
  | R_q  (** read lock held by a query ET *)

val mode_to_string : mode -> string

type verdict =
  | Compatible  (** "OK" in the paper's tables *)
  | Conflict  (** blank in the paper's tables *)
  | If_commutes
      (** "Comm" in Table 3: compatible exactly when the two operations
          commute ({!Esr_store.Op.commutes}) *)

val verdict_to_string : verdict -> string

type t

val name : t -> string
val modes : t -> mode list
(** The lock classes this table is defined over, in display order. *)

val check : t -> held:mode -> requested:mode -> verdict
(** Raises [Invalid_argument] on a mode outside [modes t]. *)

val resolve :
  t -> held:mode * Esr_store.Op.t option -> requested:mode * Esr_store.Op.t option -> bool
(** [check] with [If_commutes] discharged against the actual operations;
    missing operations make [If_commutes] a conflict (conservative). *)

val standard : t
(** Classic 2PL: R/R compatible, everything else conflicts. *)

val ordup : t
(** Paper Table 2.  Query reads are compatible with everything; update
    locks conflict unless both are reads. *)

val commu : t
(** Paper Table 3.  As Table 2, but update/update conflicts soften to
    [If_commutes]. *)

val all : t list
