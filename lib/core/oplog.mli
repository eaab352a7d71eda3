(** A site's durable operation log, stored as columns (DESIGN.md §9).

    The paper gives every site a local DBMS with an operation log (§2);
    recovery replays it and a checkpoint cut truncates it.  Each entry is
    three words in fixed-size chunks: the ET id and the key id as ints,
    and a pointer to the operation, which the methods share with the MSet
    that carried it.  Appending allocates nothing but a new 256-entry
    chunk, and only the first time the log grows that long: {!clear} (the
    checkpoint cut) resets the length and keeps the chunks for the next
    entries.

    The checker's persistent history ({!Hist.t}) is built from the
    columns on demand by {!to_hist}. *)

type t

val create : Esr_store.Keyspace.t -> t
(** An empty log naming keys through the run's keyspace.  No chunk is
    allocated until the first append. *)

val append : t -> et:Et.id -> id:int -> Esr_store.Op.t -> unit
(** Append one executed action on the key with interned id [id] (>= 0). *)

val append_key : t -> et:Et.id -> key:string -> Esr_store.Op.t -> int
(** {!append} by name; returns the id the entry carries.  A key the
    keyspace has never interned (a read of a key no site has written yet)
    is kept by name and carries a negative id, so logging never assigns
    ids. *)

val length : t -> int
(** Entries since creation or the last {!clear}.  O(1). *)

val clear : t -> unit
(** Truncate to empty, keeping the chunks for reuse; the truncated
    entries' operations are released. *)

val iter : t -> (Et.id -> int -> Esr_store.Op.t -> unit) -> unit
(** [iter t f] calls [f et id op] on every entry, in append order.  The
    id of a key kept by name is negative; only reads carry one. *)

val bytes : t -> int
(** Bytes the entries occupy in the columns: 3 words each.  The chunk
    slack behind the length and the shared operations are not counted. *)

val to_hist : t -> Hist.t
(** The entries as a persistent history, keys by name. *)
