(** Asynchronous per-site checkpoints with log/journal truncation
    (DESIGN.md §12).

    At a configured virtual-time cadence, each site snapshots its
    materialized image at a consistent cut — without pausing traffic —
    and truncates the durable log behind it; the method's checkpoint
    hook additionally reclaims stable-queue dedup records behind the
    per-stream delivery watermark and (COMPE) decided undo-journal
    entries.  Crash recovery then replays checkpoint + tail instead of
    the full log.

    The cut is consistent because the simulation is single-threaded in
    virtual time and every method maintains
    [site.store = Logmerge.replay site.log] between engine events; MSets
    in flight at the cut are retained in the receipt/sender journals,
    which are only truncated behind consumed positions.  Snapshots are
    private copies and recovery re-copies them before folding the tail,
    so repeated crashes (including during a checkpoint) recover from the
    same pristine image. *)

type config = {
  interval : float;  (** virtual ms between cuts; must be positive *)
  retain : int;  (** snapshots kept per site (>= 1); recovery uses the newest *)
}

val default_retain : int
(** 2: the newest snapshot plus one predecessor. *)

type t

val create : ?obs:Esr_obs.Obs.t -> sites:int -> config -> t
(** Fresh checkpoint state for [sites] sites.  [obs] supplies the trace
    sink for [Checkpoint_cut] events (default: a disabled bundle).
    Raises [Invalid_argument] on a non-positive interval or [retain < 1]. *)

val config : t -> config
val interval : t -> float

val cut :
  t ->
  engine:Esr_sim.Engine.t ->
  site:int ->
  ?mv:Esr_store.Mvstore.t ->
  store:Esr_store.Store.t ->
  log:Esr_core.Oplog.t ->
  reclaimed:int ->
  unit ->
  unit
(** Take a cut for [site]: copy [store] (and [mv] when the method keeps a
    version store), absorb the [Oplog.length log] entries of the site's
    log into the snapshot, account [reclaimed] journal records collected
    by the caller, emit a [Checkpoint_cut] trace event, and reset [log]
    to empty.  The log keeps its chunks, so the entries after the cut
    reuse them instead of allocating.  Call only from an engine-event
    boundary with the site up, so the image/log invariant holds. *)

val base : t -> site:int -> Esr_store.Store.t option
(** A {e fresh copy} of the newest snapshot image, ready to fold the log
    tail onto — [None] before the first cut (recovery falls back to
    full-log replay from scratch). *)

val base_mv : t -> site:int -> Esr_store.Mvstore.t option
(** Companion multiversion image, for RITU-multiversion recovery. *)

val note_tail_replay : t -> site:int -> len:int -> unit
(** Record that a recovery replayed a tail of [len] log entries (feeds
    the [ckpt/last_tail] and [ckpt/max_tail] gauges and the bounded-
    replay acceptance check of E18). *)

(** {2 Per-site stats — pure reads, sampled by the [ckpt/] gauges} *)

val cuts : t -> site:int -> int
(** Checkpoints taken. *)

val truncated_log : t -> site:int -> int
(** Cumulative log entries absorbed into snapshots. *)

val truncated_journal : t -> site:int -> int
(** Cumulative journal records reclaimed at this site's cuts. *)

val tail_replays : t -> site:int -> int

val last_tail : t -> site:int -> int
(** Length of the most recent tail replay. *)

val max_tail : t -> site:int -> int

val retained : t -> site:int -> int
(** Snapshots currently held (<= [retain]). *)

val baseline : t -> site:int -> int
(** Cumulative log entries absorbed through the {e newest} snapshot: the
    newest snapshot's log position in entries since the start of the
    run.  0 before the first cut. *)
