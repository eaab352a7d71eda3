(** Binary min-heap of [(time, seq, key)] entries, ordered by
    [(time, seq)].

    The sequence number makes the ordering of simultaneous events stable
    (FIFO among equal timestamps), which the simulator needs for
    determinism.

    Internally three scalar columns: times in a flat float array, seqs
    and keys in int arrays.  No column holds a pointer, so [push] and
    [drop_min] allocate nothing and run no write barrier once the
    columns are warm, which is what the engine's event loop relies on at
    million-event scale.  The key is an opaque int carried beside each
    entry; the engine packs what an event does into it. *)

type t

val create : ?hint:int -> unit -> t
(** [hint] sizes the columns' first allocation (default 16) so a caller
    that knows its event volume avoids the doubling cascade. *)

val size : t -> int
val is_empty : t -> bool

val push : t -> time:float -> seq:int -> key:int -> unit

val min_time : t -> float
(** Time of the minimum entry.  @raise Invalid_argument on an empty
    heap — guard with {!is_empty}. *)

val min_seq : t -> int
(** Sequence number of the minimum entry.  @raise Invalid_argument on
    an empty heap. *)

val min_key : t -> int
(** Key of the minimum entry.  @raise Invalid_argument on an empty
    heap. *)

val drop_min : t -> unit
(** Remove the minimum entry; read it first with {!min_time},
    {!min_seq} and {!min_key}.  @raise Invalid_argument on an empty
    heap. *)

val mem_seq : t -> int -> bool
(** [mem_seq t seq] is whether an entry with sequence number [seq] is in
    the heap: a linear scan of the seq column, for the rare caller that
    needs it. *)
