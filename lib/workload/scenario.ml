(** Scenario driver: runs one workload against one replica-control method
    on a fresh simulated system and collects the metrics the experiment
    tables report. *)

module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Stats = Esr_util.Stats
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Value = Esr_store.Value
module Epsilon = Esr_core.Epsilon
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Obs = Esr_obs.Obs
module Series = Esr_obs.Series
module Schedule = Esr_fault.Schedule

(* What was submitted and committed or served while a fault of
   [?faults] was in effect ({!Esr_fault.Schedule.faulty}); commits and
   answers count by the time they land. *)
type window_counts = {
  w_updates_submitted : int;
  w_updates_committed : int;
  w_queries_submitted : int;
  w_queries_served : int;
}

type result = {
  method_name : string;
  sites : int;
  spec : Spec.t;
  submitted_updates : int;
  committed : int;
  rejected : int;
  submitted_queries : int;
  served : int;
  update_latency : Stats.t;
  query_latency : Stats.t;
  charged : Stats.t;  (** inconsistency units per served query *)
  value_error : Stats.t;  (** distance to the committed-prefix oracle *)
  fallback_queries : int;  (** served via the consistent/waiting path *)
  settled : bool;
  converged : bool;
  quiesce_time : float;  (** virtual time once fully drained *)
  window : window_counts option;  (** [Some] when run with [?faults] *)
  method_stats : (string * float) list;
  net_counters : Net.counters;
}

let throughput r =
  if r.quiesce_time <= 0.0 then 0.0
  else float_of_int r.committed /. r.quiesce_time *. 1000.0
(* committed update ETs per virtual second *)

let key_name rank = Printf.sprintf "k%03d" rank

(* The generators sit on the per-op hot path, so the key-name strings are
   pre-built once per run ([key_cache]) instead of sprintf'd per sample,
   and distinct-key sampling uses a small scratch set instead of scanning
   the accumulator list per attempt.  The PRNG call sequence is identical
   to the naive version, so workloads are unchanged bit-for-bit. *)

let make_key_cache n = Array.init n key_name

let gen_intents prng zipf ~key_cache ~scratch (spec : Spec.t) =
  let pick_key () = key_cache.(Dist.Zipf.sample zipf prng) in
  let distinct_keys n =
    (* Sampling may repeat under heavy skew; retry a few times, then
       accept the repeat (methods tolerate duplicate keys in one ET). *)
    Hashtbl.reset scratch;
    let rec grow acc remaining attempts =
      if remaining = 0 then acc
      else
        let k = pick_key () in
        if Hashtbl.mem scratch k && attempts < 8 then
          grow acc remaining (attempts + 1)
        else begin
          Hashtbl.replace scratch k ();
          grow (k :: acc) (remaining - 1) 0
        end
    in
    grow [] n 0
  in
  let keys = distinct_keys spec.Spec.ops_per_update in
  match spec.Spec.profile with
  | Spec.Additive -> List.map (fun k -> Intf.Add (k, 1 + Prng.int prng 10)) keys
  | Spec.Blind_set ->
      List.map (fun k -> Intf.Set (k, Value.Int (Prng.int prng 1000))) keys
  | Spec.Mixed_arith mul_fraction ->
      if Prng.bernoulli prng mul_fraction then
        List.map (fun k -> Intf.Mul (k, 2)) keys
      else List.map (fun k -> Intf.Add (k, 1 + Prng.int prng 10)) keys

let gen_query_keys prng zipf ~key_cache (spec : Spec.t) =
  List.init spec.Spec.keys_per_query (fun _ ->
      key_cache.(Dist.Zipf.sample zipf prng))
  |> List.sort_uniq String.compare

let run ?(seed = 42) ?config ?net_config ?faults ?flush_every
    ?sharding ?obs ?checkpoint ?audit ~sites ~method_name (spec : Spec.t) =
  let engine_hint =
    (* Expected arrivals; each spawns a handful of network events. *)
    let arrivals =
      (spec.Spec.update_rate +. spec.Spec.query_rate) *. spec.Spec.duration
    in
    Stdlib.max 64 (4 * int_of_float arrivals)
  in
  let harness =
    Harness.create ?config ?net_config ?sharding ?obs ?checkpoint ~seed
      ~store_hint:spec.Spec.n_keys ~engine_hint ~sites ~method_name ()
  in
  (* The auditor taps the trace stream before anything runs, and before
     arming the series so its [audit/] columns freeze in. *)
  (match audit with
  | None -> ()
  | Some a -> Harness.attach_audit harness a);
  let sharding = (Harness.env harness).Intf.sharding in
  let keyspace = (Harness.env harness).Intf.keyspace in
  let engine = Harness.engine harness in
  let net = Harness.net harness in
  let prng = Prng.create (seed * 7919) in
  let zipf = Dist.Zipf.create ~n:spec.Spec.n_keys ~theta:spec.Spec.zipf_theta in
  let key_cache = make_key_cache spec.Spec.n_keys in
  let scratch = Hashtbl.create 16 in
  let oracle = Oracle.create ~size:spec.Spec.n_keys () in
  let metric = Spec.metric spec.Spec.profile in
  (* Derived series probes that need the workload's oracle: distance of
     each replica to the committed-prefix state, i.e. the divergence the
     paper's epsilon bounds are about.  Registered before arming so the
     columns freeze with everything in place. *)
  let series = (Harness.obs harness).Obs.series in
  if Series.on series then begin
    let oracle_stats () =
      let worst = ref 0.0 and sum = ref 0.0 in
      for site = 0 to sites - 1 do
        let d =
          Oracle.error ~metric oracle
            (Esr_store.Store.snapshot (Harness.store harness ~site))
        in
        worst := Float.max !worst d;
        sum := !sum +. d
      done;
      (!worst, !sum /. float_of_int sites)
    in
    Series.probe series ~name:"esr/oracle_max" (fun () -> fst (oracle_stats ()));
    Series.probe series ~name:"esr/oracle_mean" (fun () -> snd (oracle_stats ()))
  end;
  Harness.arm_series harness ~until:spec.Spec.duration;
  Harness.arm_checkpoints harness ~until:spec.Spec.duration;
  (* mutable tallies *)
  let submitted_updates = ref 0 and committed = ref 0 and rejected = ref 0 in
  let submitted_queries = ref 0 and served = ref 0 in
  let fallback_queries = ref 0 in
  let update_latency = Stats.create () in
  let query_latency = Stats.create () in
  let charged = Stats.create () in
  let value_error = Stats.create () in
  let w_us = ref 0 and w_uc = ref 0 and w_qs = ref 0 and w_qv = ref 0 in
  let in_window =
    match faults with None -> Fun.const false | Some s -> Schedule.faulty s
  in
  (* Periodic protocol flushes (watermark heartbeats): lets decentralized
     ordering (ORDUP Lamport mode) and VTNC advancement (RITU multi) make
     progress during the run instead of only at settle time. *)
  (match flush_every with
  | None -> ()
  | Some period ->
      if period <= 0.0 then invalid_arg "Scenario.run: flush_every must be positive";
      let t = ref period in
      while !t < spec.Spec.duration do
        ignore
          (Engine.schedule_at engine ~time:!t (fun () ->
               Esr_replica.Intf.boxed_flush (Harness.system harness)));
        t := !t +. period
      done);
  (match faults with
  | None -> ()
  | Some schedule -> Harness.inject_faults harness schedule);
  (* open-loop arrivals *)
  let schedule_arrivals ~rate ~fire =
    if rate > 0.0 then begin
      let t = ref 0.0 in
      let mean_gap = 1.0 /. rate in
      let gap_prng = Prng.split prng in
      while !t < spec.Spec.duration do
        t := !t +. Dist.sample (Dist.Exponential mean_gap) gap_prng;
        if !t < spec.Spec.duration then
          ignore (Engine.schedule_at engine ~time:!t fire)
      done
    end
  in
  schedule_arrivals ~rate:spec.Spec.update_rate ~fire:(fun () ->
      incr submitted_updates;
      let submit_time = Engine.now engine in
      if in_window submit_time then incr w_us;
      let origin = Prng.int prng sites in
      let intents = gen_intents prng zipf ~key_cache ~scratch spec in
      Harness.submit_update harness ~origin intents (function
        | Intf.Committed { committed_at } ->
            incr committed;
            if in_window committed_at then incr w_uc;
            Stats.add update_latency (committed_at -. submit_time);
            Oracle.apply oracle intents
        | Intf.Rejected _ -> incr rejected));
  schedule_arrivals ~rate:spec.Spec.query_rate ~fire:(fun () ->
      incr submitted_queries;
      (* Harness query ids are dense from 0 in submission order, so the
         id this submit will get is the tally before it. *)
      let q = !submitted_queries - 1 in
      let submit_time = Engine.now engine in
      if in_window submit_time then incr w_qs;
      let site = Prng.int prng sites in
      let keys = gen_query_keys prng zipf ~key_cache spec in
      (* Re-home the query onto a replica of its first key's shard (the
         identity under the all-sites map).  The drawn site seeds a
         deterministic pick ([route_site]), so the PRNG call sequence —
         and therefore the whole workload — does not depend on the
         map. *)
      let site =
        match keys with
        | [] -> site
        | k :: _ ->
            Esr_store.Sharding.route_site sharding
              ~id:(Esr_store.Keyspace.find keyspace k)
              ~site
      in
      Harness.submit_query harness ~site ~keys ~epsilon:spec.Spec.epsilon
        (fun outcome ->
          incr served;
          if in_window outcome.Intf.served_at then incr w_qv;
          Stats.add query_latency (outcome.Intf.served_at -. submit_time);
          Stats.add charged (float_of_int outcome.Intf.charged);
          let distance = Oracle.error ~metric oracle outcome.Intf.values in
          Stats.add value_error distance;
          (match audit with
          | None -> ()
          | Some a -> Esr_obs.Audit.note_oracle a ~q ~distance);
          if outcome.Intf.consistent_path then incr fallback_queries));
  let settled = Harness.settle_result harness = Harness.Drained in
  {
    method_name;
    sites;
    spec;
    submitted_updates = !submitted_updates;
    committed = !committed;
    rejected = !rejected;
    submitted_queries = !submitted_queries;
    served = !served;
    update_latency;
    query_latency;
    charged;
    value_error;
    fallback_queries = !fallback_queries;
    settled;
    converged = Harness.converged harness;
    quiesce_time = Engine.now engine;
    window =
      Option.map
        (fun _ ->
          {
            w_updates_submitted = !w_us;
            w_updates_committed = !w_uc;
            w_queries_submitted = !w_qs;
            w_queries_served = !w_qv;
          })
        faults;
    method_stats = Intf.boxed_stats (Harness.system harness);
    net_counters = Net.counters net;
  }

(* A stat the method does not report reads 0. *)
let method_stat r name =
  Option.value (List.assoc_opt name r.method_stats) ~default:0.0

let pp_summary ppf r =
  Format.fprintf ppf
    "%s sites=%d committed=%d/%d rejected=%d served=%d/%d up-lat(p50)=%.1f \
     q-lat(p50)=%.1f charged(max)=%.0f err(mean)=%.2f conv=%b"
    r.method_name r.sites r.committed r.submitted_updates r.rejected r.served
    r.submitted_queries
    (Stats.median r.update_latency)
    (Stats.median r.query_latency)
    (Stats.max r.charged)
    (Stats.mean r.value_error) r.converged
