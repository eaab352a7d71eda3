(** Single-version keyed object store — one replica's local state.

    Each key holds a {!Value.t} plus the timestamp of the last RITU blind
    write, so [Timed_write] implements latest-writer-wins ("an RITU update
    trying to overwrite a newer version is ignored", §3.3).

    Keys are interned into dense int ids through a {!Keyspace} (shared by
    every replica of a run).  A store is an open-addressing table keyed by
    id and sized by the keys it has written, not by the keyspace: a site
    of a ring×3 placement holds about 3/sites of the keys, and so does
    its table.  A key enters at its first write (whatever the value) and
    never leaves; a key never written, or a negative id, reads as
    {!Value.zero} and {!Esr_clock.Gtime.zero}.  The string API is a thin
    wrapper over the id one.

    [apply] returns an {!undo} record; COMPE journals these to support
    physical rollback of operations that have no logical inverse.  The
    [_unit] variants skip the undo record (and its [Ok] box) for the
    methods that discard it — the hot apply path. *)

type key = string

type undo = {
  key : key;
  before : Value.t;
  before_ts : Esr_clock.Gtime.t;
  applied : bool;  (** false when a stale [Timed_write] was ignored *)
}

type t

val create : ?keyspace:Keyspace.t -> unit -> t
(** An empty store; its table grows with the keys written.  [keyspace]
    shares an interner across stores (all replicas of a run use the one
    in [Intf.env]); omitted, the store gets a private one. *)

val keyspace : t -> Keyspace.t

val intern : t -> key -> int
(** Dense id for [key] in this store's keyspace (assigned on first use). *)

val mem : t -> key -> bool

val get : t -> key -> Value.t
(** Missing keys read as {!Value.zero} — object creation is implicit, as
    in the paper's counter examples. *)

val get_ts : t -> key -> Esr_clock.Gtime.t

val set : t -> key -> Value.t -> unit
(** Raw assignment, bypassing operation semantics (used for rollback). *)

val set_with_ts : t -> key -> Value.t -> Esr_clock.Gtime.t -> unit

val apply : t -> key -> Op.t -> (undo, Op.apply_error) result
(** Apply one operation.  [Timed_write] compares timestamps; a stale write
    is a successful no-op with [applied = false]. *)

val apply_unit : t -> key -> Op.t -> (unit, Op.apply_error) result
(** [apply] without the undo record: the success path returns a static
    [Ok ()] and allocates only the new value's box. *)

val mem_id : t -> int -> bool
(** Whether the key was ever written here; [false] on a negative id. *)

val get_id : t -> int -> Value.t
val get_ts_id : t -> int -> Esr_clock.Gtime.t

val set_id : t -> int -> Value.t -> unit
(** The id-based writers raise [Invalid_argument] on a negative id. *)

val set_with_ts_id : t -> int -> Value.t -> Esr_clock.Gtime.t -> unit
val apply_id : t -> int -> Op.t -> (undo, Op.apply_error) result

val apply_id_unit : t -> int -> Op.t -> (unit, Op.apply_error) result
(** Allocation-free apply by interned id — the propagate path of the
    async methods. *)

val rollback : t -> undo -> unit
(** Restore the before-image recorded by [apply]. *)

val iter_present : t -> (int -> Value.t -> unit) -> unit
(** [iter_present t f] calls [f id value] on every key this store has
    written, in table order (deterministic, not sorted).  O(keys
    written). *)

val for_all_present : t -> (int -> Value.t -> bool) -> bool
(** [iter_present] that stops at the first [false]. *)

val keys : t -> key list
(** Sorted, for deterministic iteration. *)

val snapshot : t -> (key * Value.t) list
(** Sorted association list of all keys — the basis of replica
    state-equality checks. *)

val equal : t -> t -> bool
(** Value equality over all keys (keys missing on one side compare as
    {!Value.zero}).  O(keys written) when both stores share a keyspace;
    name-based comparison otherwise. *)

val copy : t -> t
(** Fresh table, shared keyspace.  O(keys written). *)

val pp : Format.formatter -> t -> unit

val live_words : t -> int
(** Heap words reachable from this store's table — its id, value and
    stamp columns, boxed values and timestamps — excluding the shared
    keyspace (the table never references key names), so per-site figures
    add up without double counting.  O(live image) walk; meant for
    resource probes at sampling cadence, not hot paths. *)
