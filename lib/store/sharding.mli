(** Keyspace sharding and deterministic replica placement.

    The partial-replication discipline (Sutra & Shapiro): a key belongs
    to exactly one shard ([shard_of_id] over the run-wide {!Keyspace}
    interner ids), and each shard is replicated at a fixed set of sites
    chosen by a deterministic placement policy.  Methods route MSets and
    propagation only to the sites replicating the touched shards, cutting
    fanout from O(sites) to O(replication factor).

    The [All] policy — or any policy with [factor = sites] — replicates
    every shard everywhere and is the default in {!Esr_replica.Intf.env}.
    Full replication is simply that map: the methods run the same routed
    path under every map.  Placement is a pure function of
    [(sites, shards, factor, policy)], so every site agrees on every
    replica set without coordination. *)

type policy =
  | All  (** every site replicates every shard (full replication) *)
  | Ring  (** shard s lives at [factor] consecutive sites from [s mod sites] *)
  | Hash  (** shard s lives at [factor] sites picked by a splitmix hash *)

val policy_of_string : string -> (policy, string) result
val policy_to_string : policy -> string

type t

val create : ?policy:policy -> ?shards:int -> ?factor:int -> sites:int -> unit -> t
(** [shards] defaults to [sites] (1 for [All]); [factor] defaults to
    [sites] for [All] and [min 3 sites] otherwise.  Raises
    [Invalid_argument] when [sites < 1], [shards < 1] or [factor] is
    outside [1 .. sites]. *)

val full : sites:int -> t
(** [create ~policy:All ~sites ()] — today's replicate-everywhere map. *)

val sites : t -> int
val shards : t -> int
val factor : t -> int
val policy : t -> policy

val is_full : t -> bool
(** Every shard is replicated at every site ([factor = sites]). *)

val shard_of_id : t -> int -> int
(** Shard of an interned key id: [id mod shards].  Allocation-free.
    Negative ids (a key never interned) map to shard 0. *)

val replicas : t -> int -> int array
(** Replica sites of a shard, strictly ascending.  The array is owned by
    [t]; callers must not mutate it. *)

val replicates : t -> site:int -> shard:int -> bool
(** O(1) membership test. *)

val replicates_id : t -> site:int -> id:int -> bool
(** [replicates] of the id's shard.  Allocation-free. *)

val route_site : t -> id:int -> site:int -> int
(** [site] when it replicates [id]'s shard; otherwise a deterministic
    replica of that shard ([site mod factor]-th).  The identity under
    the all-sites map.  Used to re-home queries onto an interested
    replica without consuming randomness. *)

val converged : t -> store:(int -> Store.t) -> bool
(** Shard-aware replica equality: for every key, all sites replicating
    its shard hold the same value (absent reads {!Value.zero}).  Under
    the all-sites map this is {!Store.equal} across all sites.  Each
    replica is compared with its shard's first replica over the keys
    either of the two holds, so the cost follows the keys written, not
    the keyspace. *)

val divergent_replicas : t -> store:(int -> Store.t) -> int
(** Number of sites holding, for some key they replicate, a value that
    differs from the lowest-numbered replica of that key's shard.  Under
    the all-sites map that is the number of sites differing from
    site 0.  Walks the keys each store holds, as {!converged} does. *)

type spread = {
  spread_max : float;  (** the largest key spread *)
  spread_mean : float;  (** mean spread over the keys some site holds *)
  divergent_keys : int;  (** keys whose spread is above 0 *)
}

val spread : t -> keyspace:Keyspace.t -> store:(int -> Store.t) -> spread
(** Per-key replica spread over every key some site holds: the largest
    pairwise distance between the copies at the sites replicating the
    key's shard, where two [Int]s are [|x - y|] apart and any other pair
    is 0 apart when equal and 1 apart otherwise (absent reads
    {!Value.zero}).  One pass over each key's copies: the distance is
    max - min over the [Int] copies, raised to 1 when a non-[Int] copy
    differs from another copy.  All zeros when no site holds a key. *)

(** Zero-allocation destination-set cursor: accumulates the union of the
    replica sets of an MSet's shards, using epoch-stamped scratch arrays
    so [reset] is O(1) and nothing is allocated after [cursor].  [iter]
    visits sites in ascending order — the same order
    {!Esr_squeue.Squeue.broadcast} sends in. *)
module Dests : sig
  type sharding := t
  type t

  val cursor : sharding -> t
  (** One per system (or per call site); reusable via [reset]. *)

  val reset : t -> unit
  val add_shard : t -> int -> unit
  val add_id : t -> int -> unit
  (** Add the replica set of the id's shard. *)

  val add_site : t -> int -> unit
  (** Force one site in (e.g. an uninterested origin that must still see
      its own decision). *)

  val mem : t -> int -> bool
  val count : t -> int
  val iter : t -> (int -> unit) -> unit
  (** Ascending site order. *)
end

val pp : Format.formatter -> t -> unit
