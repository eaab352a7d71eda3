(** One site's local message processing, shared by every method
    (paper §2.2; DESIGN.md §7, §10, §12).

    A replica is the site's durable operation log, the store image
    materialized from it, and the up/down flag.  The seven methods differ
    in how MSets are ordered and how queries are charged; they all embed
    one of these per site.  The checkpoint cut relies on the invariant
    [store = Logmerge.apply hist] between engine events (folded onto the
    newest snapshot when the run checkpoints).  The record is [private],
    so the compiler checks that only {!recover} and {!cut} replace the
    image or the log and that the log grows only through {!log}; a
    method still logs every in-place store mutation before its event
    returns. *)

type t = private {
  site : int;
  mutable store : Esr_store.Store.t;
      (** volatile image; methods mutate its cells, never replace it *)
  mutable hist : Esr_core.Hist.t;  (** the durable log *)
  mutable down : bool;
}

val make : Intf.env -> site:int -> t
(** An up replica with an empty log and a store pre-sized from the run's
    store hint. *)

val log : t -> et:Esr_core.Et.id -> key:string -> Esr_store.Op.t -> unit
(** Append one executed action (update or read) to the durable log. *)

(** What a crash cost the method's volatile state, for the
    [Volatile_dropped] trace event. *)
type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

val crash : ?drop:(unit -> dropped) -> Intf.env -> t -> unit
(** When up: mark the site down, run [drop] (the method discards its
    order buffers and fails its wait contexts; default: nothing to drop),
    then emit [Volatile_dropped] with [drop]'s counts and the log length.
    No-op when already down. *)

val recover :
  ?replay:(base:Esr_store.Store.t option -> Esr_core.Hist.t -> Esr_store.Store.t) ->
  Intf.env ->
  t ->
  bool
(** When down: mark the site up and rebuild the store image by [replay]
    over the durable log — from a fresh copy of the newest checkpoint
    snapshot ([base]) when the run checkpoints, from scratch otherwise —
    timed as a [Replay] profiler span, traced as [Recovery_replay], and
    noted as a tail replay for the [ckpt/] gauges.  The default [replay]
    is {!Esr_core.Logmerge.apply}.  Returns [true] when the site
    recovered, so the method then re-ingests its journaled state; [false]
    (and no effect) when it was already up. *)

val cut :
  ?gc:(unit -> int) -> ?mv:Esr_store.Mvstore.t -> Intf.env -> 'm Esr_squeue.Squeue.t -> t -> unit
(** Take an asynchronous checkpoint cut (see {!Checkpoint.cut}): reclaim
    the stable-queue dedup records behind the delivery watermark, then run
    the method's own journal GC [gc] (returning how many records it
    reclaimed), then snapshot the image (and [mv]) and truncate the log.
    No-op when the run does not checkpoint or the site is down. *)

val resources :
  ?wal:('k, 'a) Recovery.Wal.t -> 'm Esr_squeue.Squeue.t -> t -> Intf.resources
(** The site's footprint: log, store image and stable-queue journals,
    plus the receipt journal [wal] for methods that keep one (the WAL
    fields are zero otherwise). *)

val converged : Intf.env -> (int -> t) -> bool
(** Shard-aware replica equality over every site's store image (see
    {!Esr_store.Sharding.converged}). *)
