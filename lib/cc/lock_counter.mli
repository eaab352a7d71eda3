(** Per-object lock-counters for COMMU divergence bounding (§3.2).

    "When updating an object, the update ET increments the object
    lock-counter by one … at the end of execution all the lock-counters
    are decremented.  Each lock-counter different from zero means a
    certain degree of inconsistency added to the query ET."

    The counter value on a key is exactly the number of update ETs whose
    effects on that key a query might observe mid-flight — the query-side
    inconsistency charge.  An update-side limit turns the counter into
    back-pressure: an update that would push a counter past the limit must
    wait or abort. *)

type t

val create : unit -> t

val incr : t -> string -> int
(** Returns the new count. *)

val decr : t -> string -> int
(** Raises [Invalid_argument] on a key whose count is already zero. *)

val count : t -> string -> int
val total_nonzero : t -> int
(** Number of keys with a non-zero counter. *)

val would_exceed : t -> string -> limit:int -> bool
(** [would_exceed t key ~limit] iff [incr] would push the counter
    strictly above [limit]. *)

(** {2 Weighted accounting}

    Alongside the operation count, a counter can carry the *magnitude* of
    pending change per object — the "data value changed asynchronously"
    spatial-consistency criterion of the paper's §5.1 (Sheth &
    Rusinkiewicz; Barbará & Garcia-Molina's arithmetic constraints).
    Weights are maintained independently of {!incr}/{!decr}. *)

val add_weight : t -> string -> float -> float
(** [add_weight t key w] adds [|w|] and returns the new pending weight. *)

val remove_weight : t -> string -> float -> float
(** Removes [|w|]; clamps at zero (floating-point dust is forgiven). *)

val weight : t -> string -> float
(** Pending weight of a key (0 when untouched). *)

val weight_would_exceed : t -> string -> added:float -> limit:float -> bool
(** Whether adding [|added|] would push the key's weight strictly above
    [limit]. *)
