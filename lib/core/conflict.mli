(** Operation conflicts (R/W and W/W dependencies, §2.1).

    Two operations conflict when they touch the same object, belong to
    different ETs, and cannot be swapped without changing the database.
    In the classic model that means "at least one is a write"; divergence
    control refines it with operation semantics: commuting updates do not
    conflict (this is what lets COMMU reorder MSets freely). *)

type mode =
  | Classic  (** reads vs writes only: any update conflicts with anything *)
  | Semantic  (** commuting update pairs do not conflict *)

val ops_conflict : mode -> Esr_store.Op.t -> Esr_store.Op.t -> bool

val actions_conflict : mode -> Et.action -> Et.action -> bool
(** Adds the same-key and different-ET requirements. *)

type edge = { from_et : Et.id; to_et : Et.id; pos_from : int; pos_to : int }
(** [from_et]'s operation at [pos_from] precedes and conflicts with
    [to_et]'s at [pos_to]. *)

val edges : ?mode:mode -> Hist.t -> edge list
(** All conflict dependencies of a history, in position order.
    [mode] defaults to [Classic]. *)
