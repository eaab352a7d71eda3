(** Asynchronous per-site checkpoints with log/journal truncation.

    Every durable structure the methods rely on — the operation log,
    the WAL receipt journals, the stable-queue journals — is append-mostly
    and, without GC, grows for the whole run, so crash-recovery replay
    cost and peak memory grow linearly with virtual run length.  This
    module bounds all three: at a configurable virtual-time cadence each
    site takes a {e consistent cut} of its materialized image and absorbs
    the log prefix behind the cut into it, after which recovery replays
    only the tail.

    Why a cut at an engine-event boundary is consistent without pausing
    traffic: the simulation is single-threaded in virtual time, and every
    method maintains the invariant [site.store = Logmerge.replay site.log]
    between events — every store mutation is logged before the event
    returns.  Copying the store (and, for RITU-multiversion, the version
    store) at a scheduled tick therefore captures exactly the state the
    truncated log prefix would reproduce, timestamps included
    ({!Esr_store.Store.copy} preserves per-cell write stamps, so
    latest-writer-wins resolution across the cut is unchanged).  MSets
    that are {e in flight} at the cut — received but not yet applied, or
    enqueued but not yet acknowledged — straddle the watermark and are
    deliberately retained: they live in the WAL receipt journals and the
    stable-queue sender journals, both of which are truncated only behind
    positions the method has declared consumed (WAL records are removed
    at apply time; stable-queue dedup records are reclaimed only below
    the per-stream contiguous-delivery watermark, see
    {!Esr_squeue.Squeue.gc_site}).

    The snapshot itself is copy-on-advance: the live store keeps mutating
    after the cut; the snapshot is a private copy that recovery {e copies
    again} before folding the tail onto it, so a second crash during or
    after recovery replays from the same pristine image (idempotence).

    Checkpointing is opt-in ([Intf.env.checkpoint = None] by default) and,
    when off, every structure behaves byte-identically to a build without
    this module. *)

module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Oplog = Esr_core.Oplog
module Engine = Esr_sim.Engine
module Trace = Esr_obs.Trace

type config = {
  interval : float;  (** virtual ms between cuts; must be positive *)
  retain : int;  (** snapshots kept per site (>= 1); recovery uses the newest *)
}

let default_retain = 2

type snapshot = {
  at : float;  (** virtual time of the cut *)
  image : Store.t;  (** private copy; never handed out without re-copying *)
  mv_image : Mvstore.t option;  (** RITU-multiversion companion image *)
  baseline : int;  (** cumulative log entries absorbed through this cut *)
}

type site_state = {
  mutable snaps : snapshot list;  (* newest first, length <= retain *)
  mutable cuts : int;
  mutable folded : int;  (* cumulative log entries truncated *)
  mutable reclaimed : int;  (* cumulative journal records collected *)
  mutable tail_replays : int;
  mutable last_tail : int;
  mutable max_tail : int;
}

type t = {
  config : config;
  states : site_state array;
  obs : Esr_obs.Obs.t;
}

let create ?obs ~sites config =
  if not (Float.is_finite config.interval) || config.interval <= 0.0 then
    invalid_arg "Checkpoint.create: interval must be positive and finite";
  if config.retain < 1 then
    invalid_arg "Checkpoint.create: retain must be at least 1";
  if sites <= 0 then invalid_arg "Checkpoint.create: sites must be positive";
  let obs = match obs with Some o -> o | None -> Esr_obs.Obs.default () in
  {
    config;
    states =
      Array.init sites (fun _ ->
          {
            snaps = [];
            cuts = 0;
            folded = 0;
            reclaimed = 0;
            tail_replays = 0;
            last_tail = 0;
            max_tail = 0;
          });
    obs;
  }

let config t = t.config
let interval t = t.config.interval

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let cut t ~engine ~site ?mv ~store ~log ~reclaimed () =
  let s = t.states.(site) in
  let folded = Oplog.length log in
  s.cuts <- s.cuts + 1;
  s.folded <- s.folded + folded;
  s.reclaimed <- s.reclaimed + reclaimed;
  let snap =
    {
      at = Engine.now engine;
      image = Store.copy store;
      mv_image = Option.map Mvstore.copy mv;
      baseline = s.folded;
    }
  in
  s.snaps <- take t.config.retain (snap :: s.snaps);
  let trace = t.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:snap.at
      (Trace.Checkpoint_cut { site; folded; reclaimed });
  Oplog.clear log

let newest t ~site = match t.states.(site).snaps with [] -> None | s :: _ -> Some s

(* Recovery bases re-copy the retained image: the caller folds the log
   tail onto the returned store in place, and the snapshot must stay
   pristine so a second crash recovers from the same image. *)
let base t ~site = Option.map (fun s -> Store.copy s.image) (newest t ~site)

let base_mv t ~site =
  Option.bind (newest t ~site) (fun s -> Option.map Mvstore.copy s.mv_image)

let note_tail_replay t ~site ~len =
  let s = t.states.(site) in
  s.tail_replays <- s.tail_replays + 1;
  s.last_tail <- len;
  s.max_tail <- Stdlib.max s.max_tail len

(* {2 Stats for the [ckpt/] gauges} *)

let cuts t ~site = t.states.(site).cuts
let truncated_log t ~site = t.states.(site).folded
let truncated_journal t ~site = t.states.(site).reclaimed
let tail_replays t ~site = t.states.(site).tail_replays
let last_tail t ~site = t.states.(site).last_tail
let max_tail t ~site = t.states.(site).max_tail
let retained t ~site = List.length t.states.(site).snaps

let baseline t ~site =
  match newest t ~site with Some s -> s.baseline | None -> 0
