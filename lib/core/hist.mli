(** Histories (the paper's "logs"): sequences of ET operations.

    A history records the order in which a scheduler executed operations;
    the ESR checker analyses it after the fact.  ET kinds are derived:
    an ET is a query iff all of its operations in the history are reads.

    [of_string] accepts the paper's compact notation, e.g. the ε-serial
    example log (1) of §2.1:
    ["R1(a) W1(b) W2(b) R3(a) W2(a) R3(b)"]. *)

type t

val of_actions : Et.action list -> t
(** The actions in execution order. *)

val of_string : string -> t
(** Parse [R<et>(<key>)] / [W<et>(<key>)] tokens separated by spaces.
    [W] parses as [Op.Write (Int 0)] — the checker only looks at
    read/write classes and keys.  Raises [Invalid_argument] on a
    malformed token. *)

val length : t -> int

val actions : t -> Et.action list
(** In execution order. *)

val nth : t -> int -> Et.action

val ets : t -> (Et.id * Et.kind) list
(** Every ET appearing in the history, ascending id, with derived kind. *)

val kind_of : t -> Et.id -> Et.kind
(** Raises [Not_found] for an id absent from the history. *)

val keys_of : t -> Et.id -> string list
(** Distinct keys the ET touches, sorted. *)

val first_pos : t -> Et.id -> int
val last_pos : t -> Et.id -> int
(** Positions of an ET's first/last operation.  Raise [Not_found]. *)

val filter_ets : t -> keep:(Et.id -> bool) -> t
(** Subhistory retaining only operations of chosen ETs, order preserved.
    This is the "deleting query ETs from the log" operation of §2.1. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
