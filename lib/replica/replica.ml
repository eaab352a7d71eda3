(* One site's durable log, store image and up/down flag; see replica.mli. *)

module Store = Esr_store.Store
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Squeue = Esr_squeue.Squeue
module Engine = Esr_sim.Engine
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type t = {
  site : int;
  mutable store : Store.t;
  mutable hist : Hist.t;
  mutable down : bool;
}

let make (env : Intf.env) ~site =
  {
    site;
    store =
      Store.create ~size:env.Intf.store_hint ~keyspace:env.Intf.keyspace ();
    hist = Hist.empty;
    down = false;
  }

let log r ~et ~key op = r.hist <- Hist.append r.hist (Et.action ~et ~key op)

type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

let nothing_dropped () = { buffered = 0; queries_failed = 0; updates_rejected = 0 }

let crash ?(drop = nothing_dropped) (env : Intf.env) r =
  if not r.down then begin
    r.down <- true;
    let d = drop () in
    let trace = env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace
        ~time:(Engine.now env.Intf.engine)
        (Trace.Volatile_dropped
           {
             site = r.site;
             buffered = d.buffered;
             queries_failed = d.queries_failed;
             updates_rejected = d.updates_rejected;
             log = Hist.length r.hist;
           })
  end

let recover ?replay (env : Intf.env) r =
  if not r.down then false
  else begin
    r.down <- false;
    let ckpt = env.Intf.checkpoint in
    let base =
      match ckpt with Some c -> Checkpoint.base c ~site:r.site | None -> None
    in
    let rebuild () =
      match replay with
      | Some f -> f ~base r.hist
      | None ->
          Esr_core.Logmerge.apply ?base ~keyspace:env.Intf.keyspace
            ~size:env.Intf.store_hint r.hist
    in
    r.store <-
      Prof.span env.Intf.obs.Esr_obs.Obs.prof ~site:r.site Prof.Replay rebuild;
    let len = Hist.length r.hist in
    let trace = env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace
        ~time:(Engine.now env.Intf.engine)
        (Trace.Recovery_replay { site = r.site; n_actions = len });
    (match ckpt with
    | Some c -> Checkpoint.note_tail_replay c ~site:r.site ~len
    | None -> ());
    true
  end

let cut ?(gc = fun () -> 0) ?mv (env : Intf.env) fabric r =
  match env.Intf.checkpoint with
  | Some c when not r.down ->
      let dedup = Squeue.gc_site fabric ~site:r.site in
      let reclaimed = dedup + gc () in
      r.hist <-
        Checkpoint.cut c ~engine:env.Intf.engine ~site:r.site ?mv ~store:r.store
          ~hist:r.hist ~reclaimed ()
  | Some _ | None -> ()

let resources ?wal fabric r =
  let site = r.site in
  let of_wal f = match wal with Some w -> f w ~site | None -> 0 in
  {
    Intf.log_entries = Hist.length r.hist;
    log_bytes = Hist.approx_bytes r.hist;
    wal_entries = of_wal Recovery.Wal.size;
    wal_appended = of_wal Recovery.Wal.appended;
    wal_high_water = of_wal Recovery.Wal.high_water;
    journal_depth = Squeue.journal_depth fabric ~site;
    journal_enqueued = Squeue.journaled fabric ~site;
    store_words = Store.live_words r.store;
  }

let converged (env : Intf.env) replica =
  Esr_store.Sharding.converged env.Intf.sharding ~keyspace:env.Intf.keyspace
    ~store:(fun site -> (replica site).store)
