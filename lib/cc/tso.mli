(** Basic timestamp-ordering scheduler with the paper's ESR extension.

    §3.1: "In case of basic timestamps … each object maintains the
    timestamp of the latest access.  In an SR execution, out-of-order
    reads are either rejected or cause an abort of a write.  In an ESR
    execution, the divergence control increments the inconsistency
    counter and decides whether to allow the read depending on the
    specified divergence limit."

    Updates are checked strictly (Thomas-write-rule-free basic TO);
    query reads report whether they are out of order so the caller's
    epsilon accounting can decide to admit them anyway. *)

type t

val create : unit -> t

type update_decision =
  | Accept
  | Reject_stale  (** the operation's timestamp is older than a processed conflicting one *)

val check_update_read : t -> key:string -> ts:int -> update_decision
(** Read by an update ET: rejected if a younger write was processed. *)

val check_update_write : t -> key:string -> ts:int -> update_decision
(** Write by an update ET: rejected if a younger read or write was
    processed.  Accepting records the write timestamp. *)

type query_read = In_order | Out_of_order
(** Out-of-order = the read would have been rejected under strict TO;
    admitting it costs one unit of query inconsistency. *)

val check_query_read : t -> key:string -> ts:int -> query_read
(** Never mutates scheduler state: query ETs do not constrain updates. *)
