(** RITU — read-independent timestamped updates (paper §3.3).

    Update MSets are timestamped blind writes: their effect does not
    depend on the current value, so replicas can apply them in any order —
    a stale write is simply ignored ([`Single] mode, latest-writer-wins)
    or becomes one more immutable version ([`Multi] mode).

    [`Single] ("RITU reduces to COMMU"): queries read the latest local
    value, charge-free by definition — the latest version is the desired
    datum.

    [`Multi] keeps all versions and a VTNC (visible transaction number
    counter, after the Modular Synchronization Method): the largest
    timestamp below which no new version can arrive, derived from
    per-origin FIFO watermarks.  Reading at the VTNC is SR; reading a
    version above it costs one unit of the query's epsilon budget —
    experiment E6 sweeps this freshness/consistency trade-off. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Gtime = Esr_clock.Gtime
module Lamport = Esr_clock.Lamport
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

(* Writes carry keys pre-interned at the origin: (id, name, value). *)
type mset = {
  et : Et.id;
  stamp : Gtime.t;
  writes : (int * string * Value.t) list;
  origin : int;
}

type msg = Update of mset | Watermark of Gtime.t

type site = {
  id : int;
  mutable store : Store.t;  (* latest-version view; rebuilt from [hist] *)
  mutable mv : Mvstore.t;  (* populated in `Multi mode; rebuilt from [hist] *)
  mutable hist : Hist.t;  (* the durable log *)
  clock : Lamport.t;
  watermarks : Gtime.t array;
      (* monotonic protocol metadata, logged with the stamps: durable *)
  mutable down : bool;
}

type t = {
  env : Intf.env;
  mode : [ `Single | `Multi ];
  dests : Sharding.Dests.t;  (* reusable routing cursor (submit path) *)
  sites : site array;
  fabric : msg Squeue.t;
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_rejected : int;
  mutable n_stale_ignored : int;
  mutable n_fresh_reads : int;  (* reads above the VTNC (charged) *)
  mutable n_vtnc_reads : int;  (* reads clamped to the VTNC *)
}

let meta =
  {
    Intf.name = "RITU";
    family = Intf.Forward;
    restriction = "operation semantics";
    async_propagation = "Query & Update";
    sorting_time = "at read";
  }

let log_action site ~et ~key op =
  site.hist <- Hist.append site.hist (Et.action ~et ~key op)

let refresh_vtnc site =
  let low = Array.fold_left Gtime.(fun acc w -> if compare w acc < 0 then w else acc)
      site.watermarks.(0) site.watermarks
  in
  Mvstore.advance_vtnc site.mv low

let note_watermark site ~origin ts =
  if Gtime.compare ts site.watermarks.(origin) > 0 then
    site.watermarks.(origin) <- ts;
  Gtime.witness site.clock ts;
  site.watermarks.(site.id) <-
    Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id;
  refresh_vtnc site

let apply_mset_inner t site mset =
  let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Engine.now t.env.engine)
      (Trace.Mset_applied
         {
           et = mset.et;
           site = site.id;
           n_ops = List.length mset.writes;
           order = None;
         });
  note_watermark site ~origin:mset.origin mset.stamp;
  let stamp = mset.stamp in
  List.iter
    (fun (id, key, value) ->
      if Sharding.replicates_id t.env.Intf.sharding ~site:site.id ~id then begin
        let op =
          match t.mode with
          | `Single -> Op.Timed_write { ts = stamp; value }
          | `Multi -> Op.Append { ts = stamp; value }
        in
        (match t.mode with
        | `Single ->
            (* Latest-writer-wins by hand: a stale stamp can only hit a key
               that already has a newer (materialized) cell, so skipping the
               write leaves the store byte-identical to [Store.apply] while
               allocating nothing. *)
            if Gtime.compare stamp (Store.get_ts_id site.store id) > 0 then
              Store.set_with_ts_id site.store id value stamp
            else t.n_stale_ignored <- t.n_stale_ignored + 1
        | `Multi ->
            ignore (Mvstore.append site.mv key ~ts:stamp value);
            (* Maintain the latest-version view for convergence checks. *)
            if Gtime.compare stamp (Store.get_ts_id site.store id) > 0 then
              Store.set_with_ts_id site.store id value stamp);
        log_action site ~et:mset.et ~key op
      end)
    mset.writes

let apply_mset t site mset =
  let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    apply_mset_inner t site mset;
    Prof.record prof ~site:site.id Prof.Apply ~t0 ~a0
  end
  else apply_mset_inner t site mset

(* Union of the replica sets of an MSet's write shards: the only sites
   whose stores the writes can change. *)
let interested t writes =
  let c = t.dests in
  Sharding.Dests.reset c;
  List.iter (fun (id, _, _) -> Sharding.Dests.add_id c id) writes;
  c

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Update mset -> apply_mset t site mset
  | Watermark ts -> note_watermark site ~origin:ts.Gtime.site ts

let create (env : Intf.env) =
  let rec t =
    lazy
      (let fabric =
         Squeue.create ~mode:Squeue.Fifo
           ~retry_interval:env.Intf.config.Intf.retry_interval
           ?backoff:env.Intf.config.Intf.retry_backoff
           ~obs:env.Intf.obs env.Intf.net
           ~handler:(fun ~site ~src:_ msg -> receive (Lazy.force t) ~site msg)
       in
       {
         env;
         mode = env.Intf.config.Intf.ritu_mode;
         dests = Sharding.Dests.cursor env.Intf.sharding;
         sites =
           Array.init env.Intf.sites (fun id ->
               {
                 id;
                 store =
                   Store.create ~size:env.Intf.store_hint
                     ~keyspace:env.Intf.keyspace ();
                 mv =
                   Mvstore.create ~size:env.Intf.store_hint
                     ~keyspace:env.Intf.keyspace ();
                 hist = Hist.empty;
                 clock = Lamport.create ();
                 watermarks = Array.make env.Intf.sites Gtime.zero;
                 down = false;
               });
         fabric;
         n_updates = 0;
         n_queries = 0;
         n_rejected = 0;
         n_stale_ignored = 0;
         n_fresh_reads = 0;
         n_vtnc_reads = 0;
       })
  in
  Lazy.force t

let submit_update t ~origin intents k =
  let writes =
    List.filter_map
      (function Intf.Set (key, v) -> Some (key, v) | Intf.Add _ | Intf.Mul _ -> None)
      intents
  in
  if t.sites.(origin).down then k (Intf.Rejected "origin site down")
  else if intents = [] then k (Intf.Rejected "empty update ET")
  else if List.length writes <> List.length intents then begin
    (* Add/Mul read the current value: not read-independent, so outside
       RITU's restriction (Table 1). *)
    t.n_rejected <- t.n_rejected + 1;
    k (Intf.Rejected "RITU: only blind writes (Set) are read-independent")
  end
  else begin
    t.n_updates <- t.n_updates + 1;
    let et = t.env.Intf.next_et () in
    let site = t.sites.(origin) in
    let stamp = Gtime.next site.clock ~site:origin in
    let writes =
      List.map
        (fun (key, v) ->
          (Esr_store.Keyspace.intern t.env.Intf.keyspace key, key, v))
        writes
    in
    let mset = { et; stamp; writes; origin } in
    let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace ~time:(Engine.now t.env.engine)
        (Trace.Mset_enqueued
           {
             et;
             origin;
             n_ops = List.length writes;
             keys = List.map (fun (_, key, _) -> key) writes;
           });
    apply_mset t site mset;
    let propagate () =
      (* Blind writes only matter to the replicas of their shards; commit
         stays immediate and local (read-independence). *)
      Squeue.multicast t.fabric ~src:origin ~dests:(interested t writes)
        (Update mset)
    in
    let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
    if Prof.on prof then begin
      let t0 = Prof.start prof in
      let a0 = Prof.alloc0 prof in
      propagate ();
      Prof.record prof ~site:origin Prof.Propagate ~t0 ~a0
    end
    else propagate ();
    k (Intf.Committed { committed_at = Engine.now t.env.engine })
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let et = t.env.Intf.next_et () in
  let eps = Epsilon.create epsilon in
  let started_at = Engine.now t.env.engine in
  let read_single key =
    log_action site ~et ~key Op.Read;
    (key, Store.get site.store key)
  in
  let read_multi key =
    log_action site ~et ~key Op.Read;
    let vtnc = Mvstore.vtnc site.mv in
    let value =
      match Mvstore.read_latest site.mv key with
      | Some latest when Gtime.compare latest.Mvstore.ts vtnc > 0 ->
          (* Fresh but unstable: reading it costs one inconsistency unit. *)
          if Epsilon.try_charge eps 1 then begin
            t.n_fresh_reads <- t.n_fresh_reads + 1;
            Some latest.Mvstore.value
          end
          else begin
            t.n_vtnc_reads <- t.n_vtnc_reads + 1;
            Option.map (fun v -> v.Mvstore.value) (Mvstore.read_visible site.mv key)
          end
      | Some latest -> Some latest.Mvstore.value
      | None -> None
    in
    (key, Option.value value ~default:Value.zero)
  in
  if site.down then
    (* Graceful failure: a crashed site answers from its last image,
       flagged degraded (nothing is logged — the site is not executing). *)
    k
      {
        Intf.values = List.map (fun key -> (key, Store.get site.store key)) keys;
        charged = 0;
        forced = 0;
        consistent_path = false;
        started_at;
        served_at = Engine.now t.env.engine;
      }
  else begin
  let reader = match t.mode with `Single -> read_single | `Multi -> read_multi in
  let values = List.map reader keys in
  k
    {
      Intf.values;
      charged = Epsilon.value eps;
      forced = 0;
      consistent_path = Epsilon.value eps = 0;
      started_at;
      served_at = Engine.now t.env.engine;
    }
  end

let flush t =
  match t.mode with
  | `Single -> ()
  | `Multi ->
      Array.iter
        (fun site ->
          let ts = Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id in
          site.watermarks.(site.id) <- ts;
          refresh_vtnc site;
          Squeue.broadcast t.fabric ~src:site.id (Watermark ts))
        t.sites

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  if not site.down then begin
    site.down <- true;
    (* RITU applies MSets on receipt and serves queries synchronously, so
       the only volatile state is the materialized store/version images —
       both rebuilt from the durable log on recovery.  Nothing to fail. *)
    Recovery.emit_volatile_dropped ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine
      ~site:site_id ~buffered:0 ~queries_failed:0 ~updates_rejected:0
      ~log:(Hist.length site.hist)
  end

let on_recover t ~site:site_id =
  let site = t.sites.(site_id) in
  if site.down then begin
    site.down <- false;
    match t.mode with
    | `Single ->
        site.store <-
          Recovery.replay_site ?ckpt:t.env.Intf.checkpoint
            ~keyspace:t.env.Intf.keyspace ~size:t.env.Intf.store_hint
            ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine ~site:site_id
            site.hist
    | `Multi ->
        (* The log holds Append ops; replaying them naively is arrival
           order, but the latest-version view is last-writer-wins on the
           stamp — rebuild both images timestamp-aware.  When the run
           checkpoints, both images start from copies of the newest
           snapshot pair and only the log tail folds on top (Append is
           idempotent and Timed_write is latest-writer-wins, so a tail
           action already absorbed by the snapshot would be harmless
           anyway). *)
        let ckpt = t.env.Intf.checkpoint in
        let store =
          match Option.bind ckpt (fun c -> Checkpoint.base c ~site:site_id) with
          | Some base -> base
          | None ->
              Store.create ~size:t.env.Intf.store_hint
                ~keyspace:t.env.Intf.keyspace ()
        in
        let mv =
          match Option.bind ckpt (fun c -> Checkpoint.base_mv c ~site:site_id) with
          | Some base -> base
          | None ->
              Mvstore.create ~size:t.env.Intf.store_hint
                ~keyspace:t.env.Intf.keyspace ()
        in
        let actions = Hist.actions site.hist in
        List.iter
          (fun { Et.key; op; _ } ->
            match op with
            | Op.Append { ts; value } ->
                ignore (Mvstore.append mv key ~ts value);
                ignore (Store.apply store key (Op.Timed_write { ts; value }))
            | Op.Read -> ()
            | Op.Write _ | Op.Incr _ | Op.Mult _ | Op.Div _ | Op.Timed_write _
              ->
                invalid_arg "RITU: non-append update in a multi-version log")
          actions;
        Mvstore.advance_vtnc mv (Mvstore.vtnc site.mv);
        site.store <- store;
        site.mv <- mv;
        Recovery.emit_replay ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine
          ~site:site_id ~n_actions:(List.length actions);
        Option.iter
          (fun c ->
            Checkpoint.note_tail_replay c ~site:site_id
              ~len:(Hist.length site.hist))
          ckpt
  end

let checkpoint t ~site:site_id =
  match t.env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      let site = t.sites.(site_id) in
      if not site.down then begin
        let reclaimed = Squeue.gc_site t.fabric ~site:site_id in
        site.hist <-
          (match t.mode with
          | `Single ->
              Checkpoint.cut c ~engine:t.env.Intf.engine ~site:site_id
                ~store:site.store ~hist:site.hist ~reclaimed ()
          | `Multi ->
              (* Snapshot the version store alongside the latest-writer
                 image: Multi recovery rebuilds both. *)
              Checkpoint.cut c ~engine:t.env.Intf.engine ~site:site_id
                ~mv:site.mv ~store:site.store ~hist:site.hist ~reclaimed ())
      end

let quiescent _ = true
(* RITU keeps no protocol state beyond the transport: once the stable
   queues drain, the system is quiescent. *)

let backlog _ = 0
(* Same reason: all outstanding work is in the stable queues, which the
   series already samples through the squeue registry gauges. *)

let store t ~site = t.sites.(site).store

let mvstore t ~site =
  match t.mode with `Single -> None | `Multi -> Some t.sites.(site).mv

let history t ~site = t.sites.(site).hist

let converged t =
  let sh = t.env.Intf.sharding in
  let ks = t.env.Intf.keyspace in
  Sharding.converged sh ~keyspace:ks ~store:(fun site -> t.sites.(site).store)
  && (t.mode = `Single
     ||
     (* Replicas of a shard must also agree on the full version lists of
        its keys, not just the latest-writer view. *)
     let ok = ref true in
     let id = ref 0 in
     let n = Keyspace.size ks in
     while !ok && !id < n do
       let key = Keyspace.name ks !id in
       let reps = Sharding.replicas sh (Sharding.shard_of_id sh !id) in
       let reference = Mvstore.versions t.sites.(reps.(0)).mv key in
       for i = 1 to Array.length reps - 1 do
         if !ok && Mvstore.versions t.sites.(reps.(i)).mv key <> reference
         then ok := false
       done;
       incr id
     done;
     !ok)

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("rejected", float_of_int t.n_rejected);
    ("stale_writes_ignored", float_of_int t.n_stale_ignored);
    ("fresh_reads", float_of_int t.n_fresh_reads);
    ("vtnc_reads", float_of_int t.n_vtnc_reads);
  ]

(* RITU applies on receipt (stale stamps are ignored or become versions),
   so there is no receipt journal; the WAL fields stay zero. *)
let resources t ~site:site_id =
  let site = t.sites.(site_id) in
  {
    Intf.no_resources with
    Intf.log_entries = Hist.length site.hist;
    log_bytes = Hist.approx_bytes site.hist;
    journal_depth = Squeue.journal_depth t.fabric ~site:site_id;
    journal_enqueued = Squeue.journaled t.fabric ~site:site_id;
    store_words = Store.live_words site.store;
  }
