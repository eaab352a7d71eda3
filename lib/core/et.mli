(** Epsilon-transactions (ETs), the paper's high-level interface to ESR.

    "An ET containing only reads is a query ET (Q-ET) and an ET containing
    at least one write is an update ET (U-ET)" (§2.1).  In histories the
    kind is derivable from the operations; this module fixes the
    vocabulary shared by the checker and the replica-control methods. *)

type kind = Query | Update

val kind_to_string : kind -> string

type id = int
(** ETs are numbered; ids are unique within one history / one system run. *)

(** One operation issued by an ET against a logical object. *)
type action = { et : id; key : string; op : Esr_store.Op.t }

val action : et:id -> key:string -> Esr_store.Op.t -> action
val pp_action : Format.formatter -> action -> unit
