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
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Gtime = Esr_clock.Gtime
module Lamport = Esr_clock.Lamport
module Squeue = Esr_squeue.Squeue
module Prof = Esr_obs.Prof

(* A write carries its key pre-interned at the origin, and the blind-write
   op (stamped with the MSet's stamp) that every replica applies and logs:
   one op per write, shared by all sites' logs. *)
type write = { id : int; key : string; value : Value.t; op : Op.t }

type mset = { et : Et.id; stamp : Gtime.t; writes : write list; origin : int }

type msg = Update of mset | Watermark of Gtime.t

type site = {
  id : int;
  replica : Replica.site;
      (* durable log, latest-version store view, up/down *)
  mutable mv : Mvstore.t;
      (* `Multi: every version, rebuilt from the log; `Single: one slot,
         tracking only the VTNC *)
  clock : Lamport.t;
  watermarks : Gtime.t array;
      (* monotonic protocol metadata, logged with the stamps: durable *)
}

type t = {
  k : msg Replica.t;
  mode : [ `Single | `Multi ];
  sites : site array;
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

let apply_ops t site mset =
  note_watermark site ~origin:mset.origin mset.stamp;
  let stamp = mset.stamp in
  List.iter
    (fun { id; key; value; op } ->
      if Sharding.replicates_id t.k.env.Intf.sharding ~site:site.id ~id then begin
        let store = site.replica.store in
        (match t.mode with
        | `Single ->
            (* Latest-writer-wins by hand: a stale stamp can only hit a key
               that already has a newer (materialized) cell, so skipping the
               write leaves the store byte-identical to [Store.apply] while
               allocating nothing. *)
            if Gtime.compare stamp (Store.get_ts_id store id) > 0 then
              Store.set_with_ts_id store id value stamp
            else t.n_stale_ignored <- t.n_stale_ignored + 1
        | `Multi ->
            ignore (Mvstore.append site.mv key ~ts:stamp value);
            (* Maintain the latest-version view for convergence checks. *)
            if Gtime.compare stamp (Store.get_ts_id store id) > 0 then
              Store.set_with_ts_id store id value stamp);
        Replica.log_id site.replica ~et:mset.et ~id op
      end)
    mset.writes

let apply_mset t site mset =
  Replica.apply t.k ~site:site.id ~et:mset.et ~n_ops:(List.length mset.writes)
    ~order:(-1) apply_ops t site mset

let write_key w = w.key

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Update mset -> apply_mset t site mset
  | Watermark ts -> note_watermark site ~origin:ts.Gtime.site ts

(* Multi mode's log holds Append ops; replaying them naively is arrival
   order, but the latest-version view is last-writer-wins on the stamp —
   rebuild both images timestamp-aware, folding the log's columns.  When
   the run checkpoints, both images start from copies of the newest
   snapshot pair and only the log tail folds on top (Append is idempotent
   and Timed_write is latest-writer-wins, so a tail action already
   absorbed by the snapshot would be harmless anyway). *)
let replay_multi t ~site:id ~base log =
  let site = t.sites.(id) in
  let ks = t.k.env.Intf.keyspace in
  let store =
    match base with Some base -> base | None -> Store.create ~keyspace:ks ()
  in
  let mv =
    match
      Option.bind t.k.env.Intf.checkpoint (fun c ->
          Checkpoint.base_mv c ~site:id)
    with
    | Some base -> base
    | None ->
        Mvstore.create ~size:t.k.env.Intf.store_hint
          ~keyspace:t.k.env.Intf.keyspace ()
  in
  Replica.iter_log log (fun _ key_id op ->
      match op with
      | Op.Append { ts; value } ->
          ignore (Mvstore.append mv (Keyspace.name ks key_id) ~ts value);
          (* Latest-writer-wins, as the live apply does it. *)
          if Gtime.compare ts (Store.get_ts_id store key_id) > 0 then
            Store.set_with_ts_id store key_id value ts
      | Op.Read -> ()
      | Op.Write _ | Op.Incr _ | Op.Mult _ | Op.Div _ | Op.Timed_write _ ->
          invalid_arg "RITU: non-append update in a multi-version log");
  Mvstore.advance_vtnc mv (Mvstore.vtnc site.mv);
  site.mv <- mv;
  store

(* Replicas of a shard must also agree on the full version lists of its
   keys, not just the latest-writer view. *)
let versions_agree t =
  let sh = t.k.env.Intf.sharding in
  let ks = t.k.env.Intf.keyspace in
  let ok = ref true in
  let id = ref 0 in
  let n = Keyspace.size ks in
  while !ok && !id < n do
    let key = Keyspace.name ks !id in
    let reps = Sharding.replicas sh (Sharding.shard_of_id sh !id) in
    let reference = Mvstore.versions t.sites.(reps.(0)).mv key in
    for i = 1 to Array.length reps - 1 do
      if !ok && Mvstore.versions t.sites.(reps.(i)).mv key <> reference then
        ok := false
    done;
    incr id
  done;
  !ok

(* RITU applies MSets on receipt and serves queries synchronously, so
   the only volatile state is the materialized store/version images, both
   rebuilt from the durable log on recovery: nothing to drop, and no
   receipt journal.  Multi mode alone keeps versions: it replays them,
   snapshots them at a cut and must agree on them to converge.  Single
   mode's version store only tracks the VTNC, so it gets one slot. *)
let create (env : Intf.env) =
  let mode = env.Intf.config.Intf.ritu_mode in
  let multi hook = match mode with `Multi -> Some hook | `Single -> None in
  Replica.create env ~mode:Squeue.Fifo ~receive ?replay:(multi replay_multi)
    ?mv:(multi (fun t ~site -> t.sites.(site).mv))
    ?agree:(multi versions_agree) (fun k ->
      {
        k;
        mode;
        sites =
          Array.map
            (fun replica ->
              {
                id = replica.Replica.site;
                replica;
                mv =
                  (match mode with
                  | `Multi ->
                      Mvstore.create ~size:env.Intf.store_hint
                        ~keyspace:env.Intf.keyspace ()
                  | `Single -> Mvstore.create ~size:1 ());
                clock = Lamport.create ();
                watermarks = Array.make env.Intf.sites Gtime.zero;
              })
            k.Replica.sites;
        n_stale_ignored = 0;
        n_fresh_reads = 0;
        n_vtnc_reads = 0;
      })

let kernel t = Replica.Any t.k

let submit_update t ~origin intents k =
  let writes =
    List.filter_map
      (function Intf.Set (key, v) -> Some (key, v) | Intf.Add _ | Intf.Mul _ -> None)
      intents
  in
  (* Add/Mul read the current value: not read-independent, so outside
     RITU's restriction (Table 1). *)
  let refused =
    if List.length writes = List.length intents then None
    else Some "RITU: only blind writes (Set) are read-independent"
  in
  if Replica.admit t.k ~origin ?refused intents k then begin
    let env = t.k.env in
    let et = env.Intf.next_et () in
    let site = t.sites.(origin) in
    let stamp = Gtime.next site.clock ~site:origin in
    let writes =
      List.map
        (fun (key, value) ->
          let op =
            match t.mode with
            | `Single -> Op.Timed_write { ts = stamp; value }
            | `Multi -> Op.Append { ts = stamp; value }
          in
          { id = Keyspace.intern env.Intf.keyspace key; key; value; op })
        writes
    in
    let mset = { et; stamp; writes; origin } in
    Replica.enqueued t.k ~et ~origin write_key writes;
    apply_mset t site mset;
    (* Blind writes only matter to the replicas of their shards; commit
       stays immediate and local (read-independence). *)
    Prof.span env.Intf.obs.Esr_obs.Obs.prof ~site:origin Prof.Propagate
      (fun () ->
        Squeue.multicast t.k.fabric ~src:origin
          ~dests:(Replica.route t.k write_key writes)
          (Update mset));
    Replica.commit t.k k
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  let site = t.sites.(site_id) in
  let et = t.k.env.Intf.next_et () in
  let eps = Epsilon.create epsilon in
  let started_at = Replica.now t.k in
  let read_multi key =
    Replica.log site.replica ~et ~key Op.Read;
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
  (* A crashed site answers from its last image, unlogged: it is not
     executing. *)
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then
    let values =
      match t.mode with
      | `Single -> Replica.read_all t.k ~site:site_id ~et keys
      | `Multi -> List.map read_multi keys
    in
    Replica.answer t.k k ~started_at ~charged:(Epsilon.value eps) ~forced:0
      ~consistent:(Epsilon.value eps = 0) values

let flush t =
  match t.mode with
  | `Single -> ()
  | `Multi ->
      Array.iter
        (fun site ->
          let ts = Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id in
          site.watermarks.(site.id) <- ts;
          refresh_vtnc site;
          Squeue.broadcast t.k.fabric ~src:site.id (Watermark ts))
        t.sites

let quiescent _ = true
(* RITU keeps no protocol state beyond the transport: once the stable
   queues drain, the system is quiescent. *)

let backlog _ = 0
(* Same reason: all outstanding work is in the stable queues, which the
   series already samples through the squeue registry gauges. *)

let stats t =
  Replica.stats t.k
    [
      ("rejected", float_of_int t.k.rejected);
      ("stale_writes_ignored", float_of_int t.n_stale_ignored);
      ("fresh_reads", float_of_int t.n_fresh_reads);
      ("vtnc_reads", float_of_int t.n_vtnc_reads);
    ]
