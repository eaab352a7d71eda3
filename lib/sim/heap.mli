(** Binary min-heap keyed by [(time, sequence)].

    The sequence number makes the ordering of simultaneous events stable
    (FIFO among equal timestamps), which the simulator needs for
    determinism.

    Internally a structure-of-arrays: times in a flat float array, seqs
    and keys in int arrays, payloads in their own array.  [push] and
    [drop_min] allocate nothing once the backing arrays are warm, which
    is what the engine's event loop relies on at million-event scale.
    The key is an opaque int carried beside each entry; the engine packs
    a port event into it so such an event needs no payload of its own. *)

type 'a t

val create : ?hint:int -> unit -> 'a t
(** [hint] pre-sizes the first backing-array allocation (default 16) so a
    caller that knows its event volume avoids the doubling cascade. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> key:int -> 'a -> unit

val min_time : 'a t -> float
(** Time of the minimum element.  @raise Invalid_argument on an empty
    heap — guard with {!is_empty}. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element.  @raise Invalid_argument on
    an empty heap. *)

val min_key : 'a t -> int
(** Key of the minimum element.  @raise Invalid_argument on an empty
    heap. *)

val min_payload : 'a t -> 'a
(** Payload of the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val drop_min : 'a t -> unit
(** Remove the minimum element.  Combined with {!min_time} and
    {!min_payload} this is the allocation-free alternative to {!pop}.
    @raise Invalid_argument on an empty heap. *)

val mem_seq : 'a t -> int -> bool
(** [mem_seq t seq] is whether an entry with sequence number [seq] is in
    the heap: a linear scan of the seq column, for the rare caller that
    needs it. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element. *)

val peek : 'a t -> (float * int * 'a) option
