(** The replica kernel: everything the seven methods do the same way
    (paper §2.2; DESIGN.md §3, §7, §10, §12).

    The paper describes every method as one stable-queue transport plus
    local message processing, and tells them apart only by their Table 1
    restriction.  This module is the shared half: the fabric, routing,
    the MSet lifecycle trace, update admission, query answers, crash,
    recovery, checkpoints and the accessors.  A method builds one {!t} in
    its [create], with its hooks, and keeps only its Table 1 rules: how
    MSets are ordered, how a site applies them, how queries are charged
    and how aborts are compensated.  The kernel never asks which method
    called it.

    A {!site} is the site's durable operation log, the store image
    materialized from it, and the up/down flag.  The checkpoint cut relies
    on the invariant [store = Logmerge.replay log] between engine events
    (folded onto the newest snapshot when the run checkpoints).  Both
    records are [private]: only {!recover} replaces the image, the log is
    abstract and grows only through {!log} (a {!cut} empties it), and the
    counters move only through {!admit}, {!reject} and {!open_query}.  A
    method still logs every in-place store mutation before its event
    returns. *)

type log
(** A site's durable operation log: {!Esr_core.Oplog} columns, one
    entry per executed action (ET id, key id, shared operation), reused
    across checkpoint cuts.  {!history} reads it as an
    {!Esr_core.Hist.t}. *)

type site = private {
  site : int;
  mutable store : Esr_store.Store.t;
      (** volatile image; methods mutate its keys, never replace it *)
  log : log;  (** the durable log *)
  mutable down : bool;
}

(** What a crash cost the method's volatile state, for the
    [Volatile_dropped] trace event. *)
type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

type hooks
(** The method's hooks (see {!create}), closed over its state. *)

type 'm t = private {
  env : Env.env;
  sites : site array;
  fabric : 'm Esr_squeue.Squeue.t;  (** the stable-queue transport *)
  deliver : site:int -> 'm -> unit;  (** the method's message handler *)
  hooks : hooks;
  dests : Esr_store.Sharding.Dests.t;  (** the one routing cursor *)
  mutable deferred : (int * 'm) list;
      (** {!local} messages kept while their site was down, newest first *)
  mutable updates : int;  (** admitted update ETs *)
  mutable queries : int;  (** submitted query ETs *)
  mutable rejected : int;  (** update ETs refused by the method's rules *)
}

val create :
  ?drop:('s -> site:int -> dropped) ->
  ?replay:('s -> site:int -> base:Esr_store.Store.t option ->
           log -> Esr_store.Store.t) ->
  ?rejoin:('s -> site:int -> unit) ->
  ?gc:('s -> site:int -> int) ->
  ?mv:('s -> site:int -> Esr_store.Mvstore.t) ->
  ?wal:('s -> ('k, 'a) Recovery.Wal.t) ->
  ?agree:('s -> bool) ->
  Env.env ->
  mode:Esr_squeue.Squeue.mode ->
  receive:('s -> site:int -> 'm -> unit) ->
  ('m t -> 's) ->
  's
(** [create env ~mode ~receive make] builds the fabric (registering its
    [squeue] gauges and Net hooks) and one up site per replica, each with
    an empty log and an empty store, and returns [make k], the method's
    state around kernel [k].  Every message
    for a site goes to [receive sys ~site msg], [sys] being that state.
    The hooks receive [sys] too, and run only at a {!crash} ([drop]), a
    {!recover} ([replay], by default {!Esr_core.Logmerge.replay}, then
    [rejoin]), a {!cut} ([gc], returning how many journal records it
    reclaimed, and [mv], the multi-version store to snapshot), a
    {!resources} probe ([wal], the receipt journal) or a {!converged}
    check ([agree], what it needs beyond equal store images).  A hook
    left out does nothing. *)

val log : site -> et:Esr_core.Et.id -> key:string -> Esr_store.Op.t -> unit
(** Append one executed action (update or read) to the durable log.  The
    log keeps a pointer to [op], so an op shared by an MSet's copies costs
    each site one word. *)

val log_id : site -> et:Esr_core.Et.id -> id:int -> Esr_store.Op.t -> unit
(** {!log} by interned key id, for apply paths that carry it. *)

val iter_log : log -> (Esr_core.Et.id -> int -> Esr_store.Op.t -> unit) -> unit
(** Every entry as [et id op], in append order: what a [replay] hook
    folds.  Only a read can carry a negative id (a key never interned). *)

val now : 'm t -> float

(** {1 Updates} *)

val admit :
  ?refused:string ->
  'm t ->
  origin:int ->
  Env.intent list ->
  (Env.update_outcome -> unit) ->
  bool
(** In this order: a down origin rejects the update ET, so does an empty
    one, and a [refused] reason (the method's Table 1 restriction)
    rejects it through {!reject}.  Otherwise it counts one update and
    returns [true]. *)

val reject : 'm t -> (Env.update_outcome -> unit) -> string -> unit
(** Count one refused update ET and tell the client why. *)

val commit : 'm t -> (Env.update_outcome -> unit) -> unit
(** Tell the client its update ET committed now. *)

val route : 'm t -> ('a -> string) -> 'a list -> Esr_store.Sharding.Dests.t
(** The sites replicating a shard touched by one of the keys (interned
    here): every site under the all-sites map.  The kernel's one cursor,
    valid until the next {!route}. *)

val participants : 'm t -> ('a -> string) -> 'a list -> int array
(** {!route}, copied into a fresh ascending array. *)

val enqueued : 'm t -> et:Esr_core.Et.id -> origin:int -> ('a -> string) -> 'a list -> unit
(** Trace the MSet of update ET [et] entering at [origin], one op per
    element, named by the key function. *)

val apply :
  'm t ->
  site:int ->
  et:Esr_core.Et.id ->
  n_ops:int ->
  order:int ->
  ('a -> 'b -> 'c -> unit) ->
  'a ->
  'b ->
  'c ->
  unit
(** [apply k ~site ~et ~n_ops ~order f a b c] traces [Mset_applied] (with
    the total-order position [order] unless it is negative) and runs the
    method's apply rule [f a b c] as an [Apply] profiler span.  The
    arguments come separately so that no closure is built per apply. *)

val apply_ops : site -> Esr_core.Et.id -> (string * Esr_store.Op.t) list -> unit
(** The plain apply rule: every op of ET [et], in order, applied to the
    image and logged. *)

val post : 'm t -> src:int -> dst:int -> 'm -> unit
(** Send through the fabric, or hand a same-site message to {!local}. *)

val local : 'm t -> site:int -> 'm -> unit
(** Deliver a message a site sends itself, without the network.  While
    the site is down the message is kept as a durable record, delivered
    by {!recover}, as the stable queue does for remote traffic. *)

(** {1 Queries} *)

val open_query :
  'm t ->
  site:int ->
  keys:string list ->
  started_at:float ->
  (Env.query_outcome -> unit) ->
  bool
(** Count one query.  A down site answers it at once from its last image,
    degraded and uncharged ([false]); [true] when the method serves it. *)

val answer :
  'm t ->
  (Env.query_outcome -> unit) ->
  started_at:float ->
  charged:int ->
  forced:int ->
  consistent:bool ->
  (string * Esr_store.Value.t) list ->
  unit
(** Serve a query now. *)

val read : 'm t -> site:int -> et:Esr_core.Et.id -> string -> Esr_store.Value.t
(** Log a read by query ET [et] and return the site's value. *)

val read_all :
  'm t -> site:int -> et:Esr_core.Et.id -> string list -> (string * Esr_store.Value.t) list
(** {!read} every key, in order. *)

val image : 'm t -> site:int -> string list -> (string * Esr_store.Value.t) list
(** The site's values, unlogged: the degraded answer of a site that is
    down or lost its query context. *)

(** {1 Crash, recovery and checkpoints}

    These and the accessors take any method's kernel, its message type
    hidden. *)

type any = Any : 'm t -> any

val orphans : ('k, 'v) Hashtbl.t -> ('v -> bool) -> ('k * 'v) list
(** The entries the predicate picks (those a crashed origin leaves
    behind), in ascending key order; the table is left as it is. *)

val crash : any -> site:int -> unit
(** When up: mark the site down, run [drop] (the method discards its
    order buffers, fails its wait contexts and rejects the un-notified
    outcomes the site coordinated), then emit [Volatile_dropped] with its
    counts and the log length.  The durable log and the stable-queue
    journals survive.  The caller crashes the network layer first. *)

val recover : any -> site:int -> unit
(** When down: mark the site up and rebuild the image by [replay] over
    the durable log — from a copy of the newest checkpoint snapshot
    ([base]) when the run checkpoints — as a [Replay] profiler span,
    traced as [Recovery_replay] and noted for the [ckpt/] gauges.  Then
    [rejoin] re-ingests the method's journaled state, and the site's kept
    {!local} messages are delivered in arrival order. *)

val cut : any -> site:int -> unit
(** Checkpoint cut (see {!Checkpoint.cut}): reclaim the stable-queue dedup
    records behind the delivery watermark, run [gc], then snapshot the
    image (and [mv]) and reset the log to empty, keeping its chunks.
    No-op when the run does not checkpoint or the site is down. *)

(** {1 Accessors} *)

val store : any -> site:int -> Esr_store.Store.t
val history : any -> site:int -> Esr_core.Hist.t
(** The site's log since its last cut, built as a fresh history. *)

val mvstore : any -> site:int -> Esr_store.Mvstore.t option
(** The [mv] hook's store, when the method keeps one. *)

val resources : any -> site:int -> Env.resources
(** The site's log, image and stable-queue journals, plus the [wal]
    hook's receipt journal (zero WAL fields without one).  Pure reads. *)

val converged : any -> bool
(** Shard-aware replica equality of the store images (see
    {!Esr_store.Sharding.converged}), then [agree]. *)

val stats : 'm t -> (string * float) list -> (string * float) list
(** The method's stats rows behind the kernel's [updates] and [queries]. *)
