(* Quantitative experiments: the measured counterpart of the paper's
   claims.  Each function regenerates one row-set of EXPERIMENTS.md.

   The paper (a design paper) reports no absolute numbers, so the check
   is the *shape*: who wins, what is bounded, where behaviour changes.
   All runs are deterministic given the seed printed in the header.

   Execution model: an experiment is a title, a parameter list and a row
   job — one self-contained simulation ([Scenario.run] or an inline
   harness) per parameter, returning its row as (header, cell) pairs.
   {!grid} fans the jobs out over the {!Esr_exec.Pool} domain pool; rows
   come back in parameter order and are only then appended to the table,
   so the printed output is byte-identical to a sequential run for any
   worker count (ESR_DOMAINS=1 and =N produce the same bytes). *)

module Tablefmt = Esr_util.Tablefmt
module Stats = Esr_util.Stats
module Dist = Esr_util.Dist
module Prng = Esr_util.Prng
module Net = Esr_sim.Net
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Epsilon = Esr_core.Epsilon
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Registry = Esr_replica.Registry
module Replica = Esr_replica.Replica
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Schedule = Esr_fault.Schedule
module Nemesis = Esr_fault.Nemesis
module Obs = Esr_obs.Obs
module Series = Esr_obs.Series
module Trace = Esr_obs.Trace
module Pool = Esr_exec.Pool

let seed = 20260704

(* Multiplier on the scale-tier workloads (E15-E18): sites, keys and
   update volume or horizon grow with it, so 0.02 is a CI-sized smoke of
   the same shape and 1.0 the full tier.  bench/main.ml sets it from
   --scale or ESR_SCALE. *)
let scale = ref 1.0

(* Side channel for the timed sweep: experiments that track their applied
   update-operation volume add it here; {!Timing} reads and resets it
   around each timed run to derive updates/sec without printing
   wall-clock-dependent bytes into the byte-compared tables. *)
let applied_ops = ref 0

let note_applied n = applied_ops := !applied_ops + n

let take_applied () =
  let n = !applied_ops in
  applied_ops := 0;
  n

(* The "very slow links / moderately high latency" regime of §2.4. *)
let wan = Net.wan_config

(* 2PC's coordinator outlasts every fault window instead of aborting. *)
let fault_config = { Intf.default_config with Intf.twopc_timeout = 30_000.0 }

(* The async methods of the scale tiers (E15, E17). *)
let scale_methods = [ "ORDUP"; "COMMU"; "RITU"; "QUASI" ]

let fmt_ms v = Printf.sprintf "%.1f" v
let fmt_pct num den =
  if den = 0 then "n/a" else Printf.sprintf "%.0f%%" (100.0 *. float_of_int num /. float_of_int den)
let fmt_rate p = Printf.sprintf "%.0f%%" (p *. 100.0)

(* --- the table path ------------------------------------------------ *)

(* Run [row] for every parameter on the pool and print one table row per
   parameter, in parameter order, with a separator after every [group]
   rows (the grids are ordered outer-dimension-major).  A row is its
   (header, cell) pairs, so the headers come from the rows.  [applied]
   names the integer columns whose sum is the applied update-op volume
   the timed sweep divides by wall-clock. *)
let grid ~title ?group ?(applied = []) params row =
  let rows = Pool.map row params in
  note_applied
    (List.fold_left
       (fun a row ->
         List.fold_left (fun a h -> a + int_of_string (List.assoc h row)) a applied)
       0 rows);
  let headers = match rows with [] -> [] | row :: _ -> List.map fst row in
  let t = Tablefmt.create ~title ~headers in
  List.iteri
    (fun i row ->
      Tablefmt.add_row t (List.map snd row);
      match group with
      | Some g when (i + 1) mod g = 0 -> Tablefmt.add_separator t
      | Some _ | None -> ())
    rows;
  Tablefmt.print t

(* Every pair, outer-major: the row order of a two-dimensional grid. *)
let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* Cells, each beside its header. *)
let int h v = (h, Tablefmt.cell_int v)
let bool h v = (h, Tablefmt.cell_bool v)
let num h v = (h, Tablefmt.cell_float v)
let mean h s = (h, Printf.sprintf "%.2f" (Stats.mean s))
let upd_lat r q =
  ( Printf.sprintf "Upd lat p%.0f (ms)" q,
    fmt_ms (Stats.percentile r.Scenario.update_latency q) )
let query_lat r q =
  ( Printf.sprintf "Query lat p%.0f (ms)" q,
    fmt_ms (Stats.percentile r.Scenario.query_latency q) )
let stat r h name = num h (Scenario.method_stat r name)

let count committed = function
  | Intf.Committed _ -> incr committed
  | Intf.Rejected _ -> ()

(* Durable-log replays in the trace, one per recovery. *)
let replays obs =
  let n = ref 0 in
  Trace.iter obs.Obs.trace (fun r ->
      match r.Trace.ev with Trace.Recovery_replay _ -> incr n | _ -> ());
  !n

(* [f site] summed over the sites of [h], and a resource gauge summed. *)
let sum_sites h f =
  List.fold_left (fun a site -> a + f site) 0
    (List.init (Harness.env h).Intf.sites Fun.id)

let sum_res h f =
  sum_sites h (fun site -> f (Replica.resources (Harness.system h) ~site))

(* The durable-log depth summed over sites, read off one series sample. *)
let log_depth series ~sites =
  let cols =
    List.filter_map
      (fun i ->
        Series.column_index series (Printf.sprintf "res/log_entries.s%d" i))
      (List.init sites Fun.id)
  in
  fun (smp : Series.sample) ->
    List.fold_left (fun a c -> a +. smp.Series.values.(c)) 0.0 cols

(* The fixed update stream of E13, E14, E16 and E18: [n] single-key
   updates, the i-th at [(i+1) * every] on key [k(i mod keys)] from site
   [i mod sites] — a blind write of [1000 + i] or an increment by
   [1 + i mod 3], whichever the method admits.  [outcome ~time intents]
   runs at submit time and returns the update's outcome callback. *)
let update_stream h ~name ~n ~every ~keys outcome =
  let profile = Spec.method_profile name in
  let sites = (Harness.env h).Intf.sites in
  for i = 0 to n - 1 do
    let time = float_of_int (i + 1) *. every in
    ignore
      (Engine.schedule_at (Harness.engine h) ~time (fun () ->
           let key = Printf.sprintf "k%d" (i mod keys) in
           let intents =
             [ Spec.intent profile key ~set:(1_000 + i) ~add:(1 + (i mod 3)) ]
           in
           Harness.submit_update h ~origin:(i mod sites) intents
             (outcome ~time intents)))
  done

(* A 2+2 partition of four sites over [from, until). *)
let split ~from ~until =
  Schedule.make
    [
      { Schedule.at = from; action = Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
      { Schedule.at = until; action = Schedule.Heal };
    ]

(* ------------------------------------------------------------------ *)
(* E1: scalability — asynchronous methods vs synchronous baselines     *)
(* ------------------------------------------------------------------ *)

let e1_scalability () =
  grid ~group:4
    ~title:
      "E1: scaling the number of replicas (WAN links; update latency and \
       success; paper claim Sec 1/2.4: synchronous methods degrade with \
       size, asynchronous methods do not)"
    (cross Registry.names [ 2; 4; 8; 16 ])
    (fun (name, sites) ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.02;
          query_rate = 0.02;
          n_keys = 24;
          ops_per_update = 1;
          keys_per_query = 1;
        }
      in
      let r =
        Scenario.run ~seed ~net_config:wan ~sites ~method_name:name
          (Spec.for_method name spec)
      in
      [
        ("Method", name);
        int "Sites" sites;
        int "Committed" r.Scenario.committed;
        int "Rejected" r.Scenario.rejected;
        upd_lat r 50.0;
        upd_lat r 95.0;
        query_lat r 50.0;
        ("Throughput (upd/s)", Printf.sprintf "%.1f" (Scenario.throughput r));
      ])

(* ------------------------------------------------------------------ *)
(* E2: the epsilon dial — bounded inconsistency, SR in the limit       *)
(* ------------------------------------------------------------------ *)

let e2_epsilon () =
  grid
    ~title:
      "E2: query inconsistency vs epsilon (ORDUP, 6 sites, WAN; paper \
       claim Sec 2.2/3.1: error bounded by overlap, eps=0 recovers SR)"
    [
      Epsilon.Limit 0; Epsilon.Limit 1; Epsilon.Limit 2; Epsilon.Limit 4;
      Epsilon.Limit 8; Epsilon.Unlimited;
    ]
    (fun eps ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.05;
          query_rate = 0.05;
          n_keys = 8;
          zipf_theta = 0.9;
          ops_per_update = 2;
          keys_per_query = 2;
          epsilon = eps;
        }
      in
      let r = Scenario.run ~seed ~net_config:wan ~sites:6 ~method_name:"ORDUP" spec in
      [
        ("Epsilon", Epsilon.spec_to_string eps);
        num "Max units charged" (Stats.max r.Scenario.charged);
        mean "Mean units" r.Scenario.charged;
        mean "Mean value error" r.Scenario.value_error;
        num "Max value error" (Stats.max r.Scenario.value_error);
        int "SR fallbacks" r.Scenario.fallback_queries;
        query_lat r 50.0;
        query_lat r 95.0;
      ])

(* ------------------------------------------------------------------ *)
(* E3: convergence at quiescence under a hostile network               *)
(* ------------------------------------------------------------------ *)

let e3_convergence () =
  let chaos =
    { Net.latency = Dist.Uniform (2.0, 150.0); drop_probability = 0.08; duplicate_probability = 0.05 }
  in
  grid
    ~title:
      "E3: convergence at quiescence (8% loss, 5% duplication, heavy \
       reordering; paper claim Sec 2.2: replicas converge to 1SR when \
       queued MSets are processed)"
    Registry.names
    (fun name ->
      let spec =
        {
          Spec.default with
          Spec.duration = 3_000.0;
          update_rate = 0.04;
          query_rate = 0.02;
          n_keys = 16;
        }
      in
      let r =
        Scenario.run ~seed ~net_config:chaos ~sites:5 ~method_name:name
          (Spec.for_method name spec)
      in
      [
        ("Method", name);
        int "Committed" r.Scenario.committed;
        bool "Settled" r.Scenario.settled;
        bool "Replicas equal" r.Scenario.converged;
        ("Quiesce time (ms)", fmt_ms r.Scenario.quiesce_time);
        int "Messages sent" r.Scenario.net_counters.Net.sent;
        int "Messages lost" r.Scenario.net_counters.Net.lost;
      ])

(* ------------------------------------------------------------------ *)
(* E4: availability under a network partition                          *)
(* ------------------------------------------------------------------ *)

let e4_partition () =
  grid
    ~title:
      "E4: availability during a 2+2 partition, 1200ms window (paper \
       claim Sec 1/5.3: asynchronous methods keep serving; synchronous \
       ones stall)"
    Registry.names
    (fun name ->
      let spec =
        {
          Spec.default with
          Spec.duration = 3_000.0;
          update_rate = 0.03;
          query_rate = 0.03;
          n_keys = 16;
          ops_per_update = 1;
          keys_per_query = 1;
        }
      in
      let config = { Intf.default_config with Intf.twopc_timeout = 20_000.0 } in
      let r =
        Scenario.run ~seed ~config ~sites:4 ~method_name:name
          ~faults:(split ~from:1_000.0 ~until:2_200.0)
          (Spec.for_method name spec)
      in
      let w = Option.get r.Scenario.window in
      [
        ("Method", name);
        int "Updates committed in window" w.Scenario.w_updates_committed;
        int "Updates submitted" w.Scenario.w_updates_submitted;
        ( "Update availability",
          fmt_pct w.Scenario.w_updates_committed w.Scenario.w_updates_submitted );
        int "Queries served in window" w.Scenario.w_queries_served;
        ( "Query availability",
          fmt_pct w.Scenario.w_queries_served w.Scenario.w_queries_submitted );
        bool "Converged after heal" r.Scenario.converged;
      ])

(* ------------------------------------------------------------------ *)
(* E5: the cost of backward replica control (COMPE)                    *)
(* ------------------------------------------------------------------ *)

let e5_compensation () =
  grid ~group:4
    ~title:
      "E5: compensation cost vs abort rate and operation mix (COMPE, 4 \
       sites; paper Sec 4: commutative logs compensate in place, \
       non-commutative logs need undo/redo of the tail)"
    (cross
       [ ("commutative (Add)", Spec.Additive); ("30% Mul (non-comm.)", Spec.Mixed_arith 0.3) ]
       [ 0.0; 0.1; 0.2; 0.3 ])
    (fun ((mix_name, profile), abort_p) ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.04;
          query_rate = 0.03;
          n_keys = 10;
          ops_per_update = 1;
          profile;
        }
      in
      let config =
        {
          Intf.default_config with
          Intf.compe_abort_probability = abort_p;
          compe_decision_delay = 120.0;
        }
      in
      let r = Scenario.run ~seed ~config ~net_config:wan ~sites:4 ~method_name:"COMPE" spec in
      let full = Scenario.method_stat r "full_rollbacks" in
      let depth =
        if full = 0.0 then 0.0
        else Scenario.method_stat r "rollback_depth_total" /. full
      in
      [
        ("Mix", mix_name);
        ("Abort rate", fmt_rate abort_p);
        stat r "Aborts" "aborts";
        stat r "Fast comps" "fast_compensations";
        num "Full rollbacks" full;
        ("Mean rollback depth", Printf.sprintf "%.1f" depth);
        stat r "Replayed ops" "replayed_ops";
        stat r "Tainted queries" "tainted_queries";
        stat r "Forced charges" "forced_charges";
        bool "Converged" r.Scenario.converged;
      ])

(* ------------------------------------------------------------------ *)
(* E6: RITU multiversion — freshness vs consistency at the VTNC        *)
(* ------------------------------------------------------------------ *)

let e6_ritu_vtnc () =
  grid
    ~title:
      "E6: RITU multiversion reads vs epsilon (5 sites, WAN; paper Sec \
       3.3: reads above the VTNC cost inconsistency units; eps=0 reads \
       the stable prefix)"
    [ Epsilon.Limit 0; Epsilon.Limit 1; Epsilon.Limit 2; Epsilon.Unlimited ]
    (fun eps ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.05;
          query_rate = 0.05;
          n_keys = 8;
          zipf_theta = 0.9;
          ops_per_update = 1;
          epsilon = eps;
        }
      in
      let config = { Intf.default_config with Intf.ritu_mode = `Multi } in
      let r =
        Scenario.run ~seed ~config ~net_config:wan ~sites:5 ~method_name:"RITU"
          (Spec.for_method "RITU" spec)
      in
      [
        ("Epsilon", Epsilon.spec_to_string eps);
        stat r "Fresh reads (above VTNC)" "fresh_reads";
        stat r "VTNC reads" "vtnc_reads";
        mean "Mean units" r.Scenario.charged;
        mean "Mean staleness (mismatched keys)" r.Scenario.value_error;
        bool "Converged" r.Scenario.converged;
      ])

(* ------------------------------------------------------------------ *)
(* E7: COMMU lock-counter back-pressure                                *)
(* ------------------------------------------------------------------ *)

let e7_lock_counter () =
  grid
    ~title:
      "E7: COMMU update-side lock-counter limit (4 sites, WAN, hot key; \
       paper Sec 3.2: limiting the counter trades update waiting for \
       query admissibility)"
    [ None; Some 8; Some 4; Some 2; Some 1 ]
    (fun limit ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.06;
          query_rate = 0.04;
          n_keys = 4;
          zipf_theta = 1.1;
          ops_per_update = 1;
          keys_per_query = 1;
          epsilon = Epsilon.Limit 4;
        }
      in
      let config =
        {
          Intf.default_config with
          Intf.commu_update_limit = limit;
          commu_limit_policy = `Wait;
        }
      in
      let r = Scenario.run ~seed ~config ~net_config:wan ~sites:4 ~method_name:"COMMU" spec in
      [
        ("Limit", match limit with None -> "inf" | Some l -> string_of_int l);
        stat r "Update waits" "update_waits";
        upd_lat r 50.0;
        upd_lat r 95.0;
        mean "Mean query units" r.Scenario.charged;
        num "Max query units" (Stats.max r.Scenario.charged);
        stat r "Query waits" "query_waits";
        int "Committed" r.Scenario.committed;
      ])

(* ------------------------------------------------------------------ *)
(* E8: site crash and recovery                                         *)
(* ------------------------------------------------------------------ *)

let e8_crash_recovery () =
  grid ~group:2
    ~title:
      "E8: one of 4 sites crashes for a window, then recovers (paper \
       Sec 2.2: stable queues make replica control robust to site \
       failures); updates continue at live sites"
    (cross Registry.names [ 500.0; 2_000.0 ])
    (fun (name, window) ->
      let h = Harness.create ~config:fault_config ~seed ~sites:4 ~method_name:name () in
      let engine = Harness.engine h in
      let net = Harness.net h in
      let profile = Spec.method_profile name in
      let committed = ref 0 in
      let prng = Prng.create (seed + 3) in
      for i = 0 to 59 do
        ignore
          (Engine.schedule_at engine
             ~time:(float_of_int i *. 40.0)
             (fun () ->
               let origin =
                 let candidate = Prng.int prng 4 in
                 if Net.site_up net candidate then candidate else 0
               in
               Harness.submit_update h ~origin
                 [ Spec.intent profile "k" ~set:i ~add:1 ]
                 (count committed)))
      done;
      ignore (Engine.schedule_at engine ~time:400.0 (fun () -> Net.crash net 2));
      ignore
        (Engine.schedule_at engine ~time:(400.0 +. window) (fun () ->
             Net.recover net 2));
      let settled = Harness.settle_result h = Harness.Drained in
      [
        ("Method", name);
        num "Crash window (ms)" window;
        int "Committed" !committed;
        bool "Settled" settled;
        bool "Converged after recovery" (Harness.converged h);
        int "Retx-heavy? (msgs sent)" (Net.counters net).Net.sent;
      ])

(* ------------------------------------------------------------------ *)
(* E9: saga-scoped lock-counters                                       *)
(* ------------------------------------------------------------------ *)

let e9_sagas () =
  let module Compe = Esr_replica.Compe in
  grid ~group:2
    ~title:
      "E9: sagas vs independent updates (COMPE, 3 sites; paper Sec 4.2: \
       holding lock-counters to saga end gives queries a conservative \
       upper bound on the saga's total potential inconsistency)"
    (cross [ 0.0; 0.15 ] [ ("3-step sagas", true); ("3 independent updates", false) ])
    (fun (abort_p, (label, as_saga)) ->
      let config =
        {
          Intf.default_config with
          Intf.compe_abort_probability = abort_p;
          compe_decision_delay = 100.0;
        }
      in
      let engine = Engine.create () in
      let prng = Prng.create seed in
      let net =
        Net.create ~config:wan engine ~sites:3 ~prng:(Prng.split prng)
      in
      let env = Intf.make_env ~config ~engine ~net ~prng () in
      let sys = Compe.create env in
      let committed = ref 0 in
      let units = Stats.create () in
      let steps i = [ [ Intf.Add ("a", i) ]; [ Intf.Add ("b", i) ]; [ Intf.Add ("c", i) ] ] in
      for i = 1 to 40 do
        ignore
          (Engine.schedule_at engine
             ~time:(float_of_int i *. 150.0)
             (fun () ->
               if as_saga then
                 Compe.submit_saga sys ~origin:(i mod 3) (steps i) (count committed)
               else
                 List.iter
                   (fun step ->
                     Compe.submit_update sys ~origin:(i mod 3) step (count committed))
                   (steps i)))
      done;
      for i = 1 to 30 do
        ignore
          (Engine.schedule_at engine
             ~time:((float_of_int i *. 200.0) +. 90.0)
             (fun () ->
               Compe.submit_query sys ~site:(i mod 3) ~keys:[ "a"; "b"; "c" ]
                 ~epsilon:Esr_core.Epsilon.Unlimited (fun o ->
                   Stats.add units (float_of_int o.Intf.charged))))
      done;
      let rec settle n =
        if n = 0 then false
        else begin
          Engine.run engine;
          if Compe.quiescent sys then true
          else begin
            Compe.flush sys;
            settle (n - 1)
          end
        end
      in
      let settled = settle 10 in
      [
        ("Workload", label);
        ("Abort rate", fmt_rate abort_p);
        int "Committed" !committed;
        mean "Mean query units" units;
        num "Max query units" (Stats.max units);
        num "Revokes"
          (Option.value (List.assoc_opt "revokes" (Compe.stats sys)) ~default:0.0);
        bool "Converged" (settled && Replica.converged (Compe.kernel sys));
      ])

(* ------------------------------------------------------------------ *)
(* E10: value-bounded divergence (COMMU)                               *)
(* ------------------------------------------------------------------ *)

let e10_value_bound () =
  let sites = 4 in
  grid
    ~title:
      (Printf.sprintf
         "E10: value-bounded divergence (COMMU, %d sites, WAN; Sec 5.1's \
          'data value changed asynchronously' criterion): per-key query \
          error is bounded by (sites-1) x limit"
         sites)
    [ None; Some 50.0; Some 25.0; Some 10.0; Some 5.0 ]
    (fun limit ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.06;
          query_rate = 0.05;
          n_keys = 4;
          zipf_theta = 1.0;
          ops_per_update = 1;
          keys_per_query = 1;
          epsilon = Epsilon.Unlimited;
        }
      in
      let config =
        {
          Intf.default_config with
          Intf.commu_value_limit = limit;
          commu_limit_policy = `Wait;
        }
      in
      let r = Scenario.run ~seed ~config ~net_config:wan ~sites ~method_name:"COMMU" spec in
      let worst = Stats.max r.Scenario.value_error in
      (* "%.0f" prints an infinite limit and bound as "inf". *)
      let limit = Option.value limit ~default:infinity in
      let bound = float_of_int (sites - 1) *. limit in
      [
        ("Value limit L", Printf.sprintf "%.0f" limit);
        ("Bound (n-1)L", Printf.sprintf "%.0f" bound);
        ("Max query error", Printf.sprintf "%.0f" worst);
        mean "Mean query error" r.Scenario.value_error;
        bool "Bound holds" (worst <= bound);
        stat r "Update waits" "update_waits";
        upd_lat r 95.0;
        int "Committed" r.Scenario.committed;
      ])

(* ------------------------------------------------------------------ *)
(* E11: quasi-copies closeness conditions (Sec 5.2 comparator)         *)
(* ------------------------------------------------------------------ *)

let e11_quasi () =
  grid
    ~title:
      "E11: quasi-copies coherency conditions (QUASI comparator, 4 \
       sites, WAN; Sec 5.2: inconsistency comes only from propagation \
       lag, tuned by the closeness spec - at the price of refresh \
       traffic and no per-query dial)"
    [
      ("immediate", `Immediate);
      ("periodic 100ms", `Periodic 100.0);
      ("periodic 500ms", `Periodic 500.0);
      ("drift 10", `Drift 10.0);
      ("drift 50", `Drift 50.0);
    ]
    (fun (label, refresh) ->
      let spec =
        {
          Spec.default with
          Spec.duration = 4_000.0;
          update_rate = 0.05;
          query_rate = 0.05;
          n_keys = 8;
          zipf_theta = 0.9;
          ops_per_update = 1;
          keys_per_query = 1;
        }
      in
      let config = { Intf.default_config with Intf.quasi_refresh = refresh } in
      let r = Scenario.run ~seed ~config ~net_config:wan ~sites:4 ~method_name:"QUASI" spec in
      [
        ("Closeness spec", label);
        stat r "Refreshes" "refreshes";
        int "Messages sent" r.Scenario.net_counters.Net.sent;
        mean "Mean query error" r.Scenario.value_error;
        num "Max query error" (Stats.max r.Scenario.value_error);
        upd_lat r 50.0;
        bool "Converged" r.Scenario.converged;
      ])

(* ------------------------------------------------------------------ *)
(* E12: partition length — ESR dynamic control vs off-line log merge   *)
(* ------------------------------------------------------------------ *)

let e12_partition_merge () =
  let module Et = Esr_core.Et in
  let module Op = Esr_store.Op in
  let module Logmerge = Esr_core.Logmerge in
  grid
    ~title:
      "E12: prolonged partitions (Sec 5.3): ESR methods control \
       divergence while partitioned and just drain queues at heal; \
       optimistic-1SR reconciliation merges logs off-line and must roll \
       back conflicting work that grows with partition length (mixed \
       30% overwrite workload)"
    [ 500.0; 1_000.0; 2_000.0; 4_000.0 ]
    (fun duration ->
      (* (a) ESR dynamic: COMMU runs straight through the partition. *)
      let spec =
        {
          Spec.default with
          Spec.duration = (500.0 +. duration +. 500.0);
          update_rate = 0.05;
          query_rate = 0.01;
          n_keys = 8;
          ops_per_update = 1;
        }
      in
      let r =
        Scenario.run ~seed ~sites:4 ~method_name:"COMMU"
          ~faults:(split ~from:500.0 ~until:(500.0 +. duration))
          spec
      in
      let catch_up = Float.max 0.0 (r.Scenario.quiesce_time -. (500.0 +. duration)) in
      (* (b) off-line merge: two partition-side logs of the same length,
         mixed commutative/overwrite operations on shared keys. *)
      let gen_log offset prng =
        let n = int_of_float (duration *. 0.05 /. 2.0) in
        Esr_core.Hist.of_actions
          (List.init n (fun i ->
               let key = Printf.sprintf "k%d" (Prng.int prng 8) in
               let op =
                 if Prng.bernoulli prng 0.3 then
                   Op.Write (Esr_store.Value.Int (Prng.int prng 100))
                 else Op.Incr (1 + Prng.int prng 9)
               in
               Et.action ~et:(offset + i) ~key op))
      in
      let prng = Prng.create (seed + int_of_float duration) in
      let log_a = gen_log 1 prng and log_b = gen_log 100_000 prng in
      let m = Logmerge.merge ~majority:log_a ~minority:log_b in
      [
        ("Partition (ms)", Printf.sprintf "%.0f" duration);
        ("COMMU catch-up after heal (ms)", fmt_ms catch_up);
        ("COMMU rolled back", "0");
        int "Merge: minority ETs" (List.length (Esr_core.Hist.ets log_b));
        int "Merge: rolled back" (List.length m.Logmerge.rolled_back);
        int "Merge: conflict keys" (List.length m.Logmerge.conflict_keys);
      ])

(* ------------------------------------------------------------------ *)
(* E13: availability + staleness under real crash-recovery faults      *)
(* ------------------------------------------------------------------ *)

(* E13 and E14's fault schedule: site 1 down over [600, 1400), then a
   2+2 partition over [1800, 2600). *)
let e13_faults =
  Result.get_ok
    (Schedule.of_spec "crash@600:1;recover@1400:1;partition@1800:0 1|2 3;heal@2600")

(* Unlike E8 (which only isolates a site at the network), these faults go
   through the full crash-recovery path: the crashed site's volatile
   state is wiped, in-progress work there fails degraded, and recovery
   replays the durable log before the stable queues catch the site up. *)
let e13_fault_availability () =
  let module Oracle = Esr_workload.Oracle in
  let faulty = Schedule.faulty e13_faults in
  grid
    ~title:
      "E13: availability and query staleness under faults with full \
       crash-recovery semantics — crash@600:1 recover@1400:1 then a 2+2 \
       partition@1800 heal@2600 (volatile state wiped at the crash, \
       durable log replayed at recovery; paper Sec 1/5.3: asynchronous \
       methods keep serving through both windows)"
    Registry.names
    (fun name ->
      let obs = Obs.create ~tracing:true () in
      let h = Harness.create ~config:fault_config ~obs ~seed ~sites:4 ~method_name:name () in
      let net = Harness.net h in
      let oracle = Oracle.create ~size:8 () in
      let metric = Spec.metric (Spec.method_profile name) in
      let f_sub = ref 0 and f_com = ref 0 and c_sub = ref 0 and c_com = ref 0 in
      let degraded = ref 0 in
      let f_stale = Stats.create () and c_stale = Stats.create () in
      (* Updates every 20ms from rotating origins over 8 keys.  Commits
         bucket by commit time (as E4 does): an update that only commits
         after the heal was not available during the fault. *)
      update_stream h ~name ~n:160 ~every:20.0 ~keys:8 (fun ~time intents ->
          incr (if faulty time then f_sub else c_sub);
          function
          | Intf.Committed { committed_at } ->
              incr (if faulty committed_at then f_com else c_com);
              Oracle.apply oracle intents
          | Intf.Rejected _ -> ());
      (* Queries every 35ms from rotating sites; staleness = distance of
         the answer from the committed-prefix oracle at serve time. *)
      for i = 0 to 90 do
        let time = float_of_int (i + 1) *. 35.0 in
        ignore
          (Engine.schedule_at (Harness.engine h) ~time (fun () ->
               let site = i mod 4 in
               if not (Net.site_up net site) then incr degraded;
               (* Stride 3 decorrelates the queried key from the querying
                  site: update keys are written by origin [i mod 4], so a
                  straight [i mod 8] key would only ever read writes from
                  the query site's own partition side. *)
               let keys = [ Printf.sprintf "k%d" (i * 3 mod 8) ] in
               Harness.submit_query h ~site ~keys ~epsilon:Epsilon.Unlimited
                 (fun outcome ->
                   let stale = Oracle.error ~metric oracle outcome.Intf.values in
                   if faulty outcome.Intf.served_at then
                     Stats.add f_stale stale
                   else Stats.add c_stale stale)))
      done;
      Harness.inject_faults h e13_faults;
      let settled = Harness.settle_result h = Harness.Drained in
      (* Counted before [converged] adds its own trace event. *)
      let replays = replays obs in
      [
        ("Method", name);
        ("Upd avail (faulty)", fmt_pct !f_com !f_sub);
        ("Upd avail (clear)", fmt_pct !c_com !c_sub);
        int "Degraded queries" !degraded;
        mean "Staleness (faulty)" f_stale;
        mean "Staleness (clear)" c_stale;
        int "Log replays" replays;
        bool "Converged" (settled && Harness.converged h);
      ])

(* ------------------------------------------------------------------ *)
(* E14: divergence profile over the fault schedule                     *)
(* ------------------------------------------------------------------ *)

(* The observatory's view of the E13 workload: instead of bucketing
   commits into faulty/clear windows, the series samples max replica
   spread every 100ms, so the table shows divergence building while a
   site is down, spiking at the partition, and collapsing to zero at
   quiescence (the paper's convergence claim, watched rather than merely
   asserted at the end). *)
let e14_divergence_profile () =
  let t =
    Tablefmt.create
      ~title:
        "E14: divergence profile — max replica spread (distance between the \
         most and least advanced copy of any key) sampled every 100ms over \
         the E13 fault schedule (crash@600:1 recover@1400:1 partition@1800 \
         heal@2600); * marks rows inside a fault window"
      ~headers:(("t (ms)" :: Registry.names) @ [ "fault?" ])
  in
  (* Each job returns (spread at time t, peak spread, time of the last
     divergent sample); the same update stream as E13, queries omitted
     since replica spread is a pure update-propagation phenomenon. *)
  let profiles =
    Pool.map
      (fun name ->
        let obs = Obs.create ~series:true ~series_interval:100.0 () in
        let h = Harness.create ~config:fault_config ~obs ~seed ~sites:4 ~method_name:name () in
        update_stream h ~name ~n:160 ~every:20.0 ~keys:8 (fun ~time:_ _ _ -> ());
        Harness.inject_faults h e13_faults;
        Harness.arm_series h ~until:3_400.0;
        ignore (Harness.settle_result h);
        let series = obs.Obs.series in
        let col = Option.get (Series.column_index series "esr/spread_max") in
        let by_time = Hashtbl.create 64 in
        let peak = ref 0.0 and last_div = ref 0.0 in
        Series.iter series (fun s ->
            let v = s.Series.values.(col) in
            Hashtbl.replace by_time s.Series.at v;
            if v > !peak then peak := v;
            if v > 0.0 then last_div := s.Series.at);
        (by_time, !peak, !last_div))
      Registry.names
  in
  let cell v = if v = 0.0 then "0" else Printf.sprintf "%.0f" v in
  let times = List.init 17 (fun i -> float_of_int (i + 1) *. 200.0) in
  List.iter
    (fun time ->
      Tablefmt.add_row t
        ((Printf.sprintf "%.0f" time
         :: List.map
              (fun (by_time, _, _) ->
                match Hashtbl.find_opt by_time time with
                | Some v -> cell v
                | None -> "-")
              profiles)
        @ [ (if Schedule.faulty e13_faults time then "*" else "") ]))
    times;
  Tablefmt.add_separator t;
  Tablefmt.add_row t
    (("peak" :: List.map (fun (_, peak, _) -> cell peak) profiles) @ [ "" ]);
  Tablefmt.add_row t
    (("last divergent" :: List.map (fun (_, _, last) -> cell last) profiles)
    @ [ "" ]);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* A1: ablation — ORDUP ordering source                                *)
(* ------------------------------------------------------------------ *)

let a1_ordup_ordering () =
  grid ~group:2
    ~title:
      "A1 (ablation): ORDUP order source — central sequencer vs Lamport \
       timestamps (paper Sec 3.1: with timestamps, MSets must wait until \
       no earlier stamp can arrive)"
    (cross
       [
         ("sequencer", `Sequencer, None);
         ("lamport", `Lamport, None);
         ("lamport + 50ms heartbeats", `Lamport, Some 50.0);
       ]
       [ 4; 8 ])
    (fun ((label, ordering, flush_every), sites) ->
      let spec =
        {
          Spec.default with
          Spec.duration = 3_000.0;
          update_rate = 0.03;
          query_rate = 0.01;
          n_keys = 16;
          ops_per_update = 1;
        }
      in
      let config = { Intf.default_config with Intf.ordup_ordering = ordering } in
      let r =
        Scenario.run ~seed ~config ~net_config:wan ?flush_every ~sites
          ~method_name:"ORDUP" spec
      in
      [
        ("Ordering", label);
        int "Sites" sites;
        upd_lat r 50.0;
        upd_lat r 95.0;
        ("Quiesce time (ms)", fmt_ms r.Scenario.quiesce_time);
        int "Committed" r.Scenario.committed;
      ])

(* ------------------------------------------------------------------ *)
(* A2: ablation — stable-queue retry interval vs loss                  *)
(* ------------------------------------------------------------------ *)

let a2_squeue_retry () =
  grid ~group:4
    ~title:
      "A2 (ablation): stable-queue retry interval vs link loss — time to \
       drain 200 broadcast MSets (4 sites, 10ms links)"
    (cross [ 0.0; 0.05; 0.1; 0.2 ] [ 25.0; 50.0; 100.0; 200.0 ])
    (fun (drop, retry) ->
      let engine = Engine.create () in
      let config = { Net.default_config with Net.drop_probability = drop } in
      let net = Net.create ~config engine ~sites:4 ~prng:(Prng.create seed) in
      let delivered = ref 0 in
      let q =
        Squeue.create ~retry_interval:retry net
          ~handler:(fun ~site:_ ~src:_ () -> incr delivered)
      in
      for i = 0 to 199 do
        ignore
          (Engine.schedule engine ~delay:(float_of_int i) (fun () ->
               Squeue.send q ~src:(i mod 4) ~dst:((i + 1) mod 4) ()))
      done;
      Engine.run engine;
      let c = Squeue.counters q in
      [
        ("Loss", fmt_rate drop);
        num "Retry interval (ms)" retry;
        ("Drain time (ms)", fmt_ms (Engine.now engine));
        int "Retransmissions" c.Squeue.retransmissions;
        int "Duplicates suppressed" c.Squeue.duplicates_suppressed;
      ])

(* ------------------------------------------------------------------ *)
(* E15: the million-op scale tier                                      *)
(* ------------------------------------------------------------------ *)

(* One order of magnitude past every other experiment: ~100 sites,
   ~10^5 keys, and >= 10^6 *applied update operations* per method at
   scale 1.0 (an applied op = one operation of one committed update ET
   executed at one replica, so applied = committed x ops/update x sites
   for the full-replication methods below).  The async methods only —
   the tier exists to exercise the interned-key stores, the
   allocation-stripped apply path, and the SoA event heap at volume, not
   to re-measure 2PC's round trips.

   The table prints only deterministic values (the timed sweep
   byte-compares it across domain counts and tracing); wall-clock
   throughput goes through {!note_applied} into BENCH_experiments.json,
   and a human-readable ops/sec line is printed to *stderr*. *)
let e15_scale () =
  let s = !scale in
  let sites = Stdlib.max 4 (int_of_float ((100.0 *. s) +. 0.5)) in
  let n_keys = Stdlib.max 64 (int_of_float ((100_000.0 *. s) +. 0.5)) in
  let duration = 10_000.0 *. s in
  let update_rate = 0.5 in  (* ETs per virtual ms -> ~5_000 x s update ETs *)
  let ops_per_update = 2 in
  (* [grid] notes the table's applied ops; the delta is this run's. *)
  let noted = !applied_ops and t0 = Unix.gettimeofday () in
  grid ~applied:[ "Applied ops" ]
    ~title:
      (Printf.sprintf
         "E15: scale tier at scale %g — %d sites, %d keys, ~%.0f update \
          ETs x %d ops applied at every replica (async methods; \
          deterministic columns only, throughput lands in \
          BENCH_experiments.json)"
         s sites n_keys (duration *. update_rate) ops_per_update)
    scale_methods
    (fun name ->
      let spec =
        {
          Spec.default with
          Spec.duration;
          update_rate;
          query_rate = 0.002;
          n_keys;
          ops_per_update;
          keys_per_query = 1;
        }
      in
      let r = Scenario.run ~seed ~sites ~method_name:name (Spec.for_method name spec) in
      [
        ("Method", name);
        int "Committed" r.Scenario.committed;
        int "Rejected" r.Scenario.rejected;
        int "Applied ops" (r.Scenario.committed * ops_per_update * sites);
        int "Msgs sent" r.Scenario.net_counters.Net.sent;
        bool "Settled" r.Scenario.settled;
        bool "Replicas equal" r.Scenario.converged;
      ]);
  let elapsed = Unix.gettimeofday () -. t0 in
  let applied = !applied_ops - noted in
  (* stderr on purpose: wall-clock numbers must not enter the
     byte-compared stdout capture. *)
  Printf.eprintf
    "e15_scale: %d applied update ops in %.2fs wall = %.0f updates/sec \
     (scale %g, %d sites, %d keys)\n%!"
    applied elapsed
    (if elapsed > 0.0 then float_of_int applied /. elapsed else 0.0)
    s sites n_keys

(* ------------------------------------------------------------------ *)
(* E16: long soak — log/journal growth under traffic plus a nemesis    *)
(* ------------------------------------------------------------------ *)

(* The resource observatory's long-haul run: every method faces the same
   sustained update stream and the same seeded nemesis schedule (crash
   and partition windows, all healed before quiescence) while the
   harness's per-site [res/] gauges are sampled on virtual time.  The
   table quantifies what grows without bound (durable logs, cumulative
   WAL appends, journal enqueues) versus what drains (standing journal
   depth), which is exactly the trade the paper's stable queues buy
   availability with.

   Printed columns are all counts on virtual time, so the timed sweep
   byte-compares this table across domain counts, tracing and profiling
   like every other experiment.  Per-method dumps — the esr-series/1
   resource series, an OpenMetrics exposition, the HTML report and (when
   profiling is on) the esr-profile/1 dump — are only written when
   ESR_SOAK_DIR names a directory, so they never perturb stdout. *)
let e16_soak () =
  let module Prof = Esr_obs.Prof in
  let module Report = Esr_obs.Report in
  let module Openmetrics = Esr_obs.Openmetrics in
  let module Metrics = Esr_obs.Metrics in
  let s = !scale in
  let sites = 4 in
  let duration = Stdlib.max 1_200.0 (12_000.0 *. s) in
  let update_every = 20.0 in
  let n_updates = int_of_float (duration *. 0.8 /. update_every) in
  let interval = duration /. 60.0 in
  let soak_dir = Sys.getenv_opt "ESR_SOAK_DIR" in
  (match soak_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  let profiling = Atomic.get Obs.default_profiling in
  let schedule =
    Nemesis.generate ~seed ~sites ~duration:(duration *. 0.7) ()
  in
  Printf.printf "e16 nemesis schedule (seed %d): %s\n" seed
    (Schedule.to_spec schedule);
  grid ~applied:[ "Log entries" ]
    ~title:
      (Printf.sprintf
         "E16: long soak at scale %g — %d sites, %.0f virtual ms of \
          sustained updates under the seeded nemesis above; durable \
          log / WAL / journal growth summed over sites (cumulative \
          counters grow, standing depth drains to 0 at quiescence)"
         s sites duration)
    Registry.names
    (fun name ->
      let obs =
        Obs.create ~tracing:true ~series:true ~series_interval:interval
          ~profiling ()
      in
      let h = Harness.create ~config:fault_config ~obs ~seed ~sites ~method_name:name () in
      let committed = ref 0 in
      update_stream h ~name ~n:n_updates ~every:update_every ~keys:16
        (fun ~time:_ _ -> count committed);
      Harness.inject_faults h schedule;
      Harness.arm_series h ~until:duration;
      let settled = Harness.settle_result h = Harness.Drained in
      let replays = replays obs in
      (* Growth rate of the summed durable log over the sampled window
         (virtual time, hence deterministic). *)
      let series = obs.Obs.series in
      let depth = log_depth series ~sites in
      let first = ref None and last = ref None in
      Series.iter series (fun smp ->
          if !first = None then first := Some smp;
          last := Some smp);
      let growth =
        match (!first, !last) with
        | Some f, Some l when l.Series.at > f.Series.at ->
            (depth l -. depth f) /. (l.Series.at -. f.Series.at) *. 1000.0
        | _ -> 0.0
      in
      (* Dump the observability artefacts for this method, if asked. *)
      (match soak_dir with
      | Some dir ->
          let out file f =
            let oc = open_out file in
            Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
          in
          let base =
            Filename.concat dir
              (Printf.sprintf "e16_%s"
                 (String.lowercase_ascii
                    (String.map (function '/' -> '_' | c -> c) name)))
          in
          out (base ^ ".series.json") (fun oc -> Series.write_json oc series);
          out (base ^ ".om") (fun oc ->
              Openmetrics.write_snapshot oc (Metrics.snapshot obs.Obs.metrics));
          if Prof.on obs.Obs.prof then
            out (base ^ ".profile.json") (fun oc ->
                Prof.write_json oc obs.Obs.prof);
          let records = ref [] in
          Trace.iter obs.Obs.trace (fun r -> records := r :: !records);
          let input =
            Report.make ~label:("e16 " ^ name)
              ~series:(Series.dump series)
              ?profile:
                (if Prof.on obs.Obs.prof then Some (Prof.dump obs.Obs.prof)
                 else None)
              (List.rev !records)
          in
          out (base ^ ".html") (fun oc -> output_string oc (Report.html input))
      | None -> ());
      [
        ("Method", name);
        int "Committed" !committed;
        int "Log entries" (sum_res h (fun r -> r.Intf.log_entries));
        ( "Log KB",
          Printf.sprintf "%.1f"
            (float_of_int (sum_res h (fun r -> r.Intf.log_bytes)) /. 1024.0) );
        int "WAL appends" (sum_res h (fun r -> r.Intf.wal_appended));
        int "Journal enq" (sum_res h (fun r -> r.Intf.journal_enqueued));
        int "Journal depth" (sum_res h (fun r -> r.Intf.journal_depth));
        int "Replays" replays;
        ("Log growth /1k ms", Printf.sprintf "%.1f" growth);
        bool "Converged" (settled && Harness.converged h);
      ])

(* ------------------------------------------------------------------ *)
(* E17: sharded scale — interest-routed propagation vs full fanout     *)
(* ------------------------------------------------------------------ *)

(* The partial-replication payoff, measured: the same workload on the
   same site count, once fully replicated (every update MSet reaches
   every site) and once under ring placement with 3 copies per shard
   (updates reach only the interested replicas).  Messages per committed
   update should track the replication factor, not the site count —
   at 200 sites and factor 3 the sharded fanout is ~1.5% of full — and
   the per-site store footprint should shrink roughly by factor/sites,
   because a site only materialises the shards it replicates.

   Printed columns are all virtual-time-deterministic, so the timed
   sweep byte-compares this table like every other experiment; applied
   update-op volume goes through {!note_applied} so the sweep derives an
   updates/sec figure for the sharded tier too. *)
let e17_sharded_scale () =
  let module Sharding = Esr_store.Sharding in
  let module Metrics = Esr_obs.Metrics in
  let s = !scale in
  let sites = Stdlib.max 8 (int_of_float ((200.0 *. s) +. 0.5)) in
  let factor = 3 in
  let n_keys = 4_096 in
  let ops_per_update = 2 in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "E17: sharded scale at scale %g — %d sites, full replication vs \
            ring placement with %d copies per shard (%d shards, %d keys); \
            interest-routed propagation cuts messages per committed update \
            from O(sites) to O(factor), and the per-site store shrinks \
            with the replication factor"
           s sites factor sites n_keys)
      ~headers:
        [ "Method"; "Copies"; "Committed"; "Msgs sent"; "Msgs/update";
          "vs full"; "Store words/site"; "Settled"; "Converged" ]
  in
  let results =
    Pool.map
      (fun (name, copies) ->
        let spec =
          {
            Spec.default with
            Spec.duration = 2_000.0;
            update_rate = 0.25;
            query_rate = 0.01;
            n_keys;
            ops_per_update;
            keys_per_query = 1;
          }
        in
        let sharding =
          if copies = sites then None
          else
            Some
              (Sharding.create ~policy:Sharding.Ring ~shards:sites
                 ~factor:copies ~sites ())
        in
        let obs = Obs.create () in
        let r =
          Scenario.run ~seed ?sharding ~obs ~sites ~method_name:name
            (Spec.for_method name spec)
        in
        (* Mean per-site store footprint, read off the harness's
           [res/store_words] gauges at quiescence. *)
        let store_words =
          List.fold_left
            (fun a (e : Metrics.entry) ->
              match (e.Metrics.group, e.Metrics.name, e.Metrics.view) with
              | "res", "store_words", Metrics.Gauge_v v -> a +. v
              | _ -> a)
            0.0
            (Metrics.snapshot obs.Obs.metrics)
          /. float_of_int sites
        in
        (name, copies, r, store_words))
      (cross scale_methods [ sites; factor ])
  in
  note_applied
    (List.fold_left
       (fun a (_, copies, r, _) -> a + (r.Scenario.committed * ops_per_update * copies))
       0 results);
  let msgs_per_update (r : Scenario.result) =
    if r.Scenario.committed = 0 then 0.0
    else
      float_of_int r.Scenario.net_counters.Net.sent
      /. float_of_int r.Scenario.committed
  in
  List.iter
    (fun (name, copies, r, store_words) ->
      let mpu = msgs_per_update r in
      (* The fanout ratio against the same method's full-replication
         twin. *)
      let full =
        List.find_map
          (fun (n, c, r, _) ->
            if n = name && c = sites then Some (msgs_per_update r) else None)
          results
      in
      Tablefmt.add_row t
        [
          name;
          Tablefmt.cell_int copies;
          Tablefmt.cell_int r.Scenario.committed;
          Tablefmt.cell_int r.Scenario.net_counters.Net.sent;
          Printf.sprintf "%.1f" mpu;
          (match full with
          | Some f when f > 0.0 -> Printf.sprintf "%.3fx" (mpu /. f)
          | _ -> "n/a");
          Printf.sprintf "%.0f" store_words;
          Tablefmt.cell_bool r.Scenario.settled;
          Tablefmt.cell_bool r.Scenario.converged;
        ];
      if copies <> sites then Tablefmt.add_separator t)
    results;
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E18: bounded soak — checkpoint + GC bounds log depth and replay     *)
(* ------------------------------------------------------------------ *)

(* The robustness claim of DESIGN.md §12, measured over days of virtual
   time: with asynchronous checkpointing on, the *standing* durable-log
   depth and the crash-replay length stay bounded by the checkpoint
   cadence while the *cumulative* work (entries folded into snapshots)
   keeps growing — and the final replica state is exactly what an
   identical run without checkpointing reaches, which the Off-match
   column checks store-for-store against a same-seed checkpointing-off
   twin of every run.

   Every method faces the same sustained update stream and the same
   seeded continuous nemesis: crash and partition windows spread over
   80% of the horizon, all healed before quiescence, so tail replays
   happen mid-run at whatever cut positions the cadence produced.  Cut
   times are multiples of the interval and nemesis crash times come from
   a continuous PRNG, so the exact ties {!Esr_fault.Schedule.validate}
   rejects cannot occur.  All printed columns are virtual-time counts,
   so the table byte-compares across domain counts, tracing and
   profiling like every other experiment. *)
let e18_bounded_soak () =
  let module Checkpoint = Esr_replica.Checkpoint in
  let module Store = Esr_store.Store in
  let s = !scale in
  let sites = 4 in
  (* Two virtual days at full scale; the update, checkpoint and series
     cadences all scale with the horizon, so the event volume — and the
     wall-clock cost — stays fixed as the virtual horizon stretches. *)
  let duration = Stdlib.max 4_800.0 (172_800_000.0 *. s) in
  let update_every = duration /. 4_000.0 in
  let n_updates = int_of_float (duration *. 0.8 /. update_every) in
  let ckpt_interval = duration /. 96.0 in
  let series_interval = duration /. 60.0 in
  let profile =
    {
      Nemesis.max_faults = 10;
      crash_bias = 0.6;
      min_window = duration *. 0.002;
      max_window = duration *. 0.02;
    }
  in
  let schedule =
    Nemesis.generate ~profile ~seed ~sites ~duration:(duration *. 0.8) ()
  in
  Printf.printf "e18 nemesis schedule (seed %d): %s\n" seed
    (Schedule.to_spec schedule);
  (* Identical workload for the checkpointed run and its off twin: same
     arrival times, same intents, same fault schedule. *)
  let drive name h =
    let committed = ref 0 in
    update_stream h ~name ~n:n_updates ~every:update_every ~keys:16
      (fun ~time:_ _ -> count committed);
    Harness.inject_faults h schedule;
    committed
  in
  grid ~applied:[ "Folded"; "Final log" ]
    ~title:
      (Printf.sprintf
         "E18: bounded soak at scale %g — %d sites, %.0f virtual ms of \
          sustained updates under the seeded nemesis above, checkpoint \
          cut every %.0f ms (retain %d); standing log depth (Max depth) \
          and replay length (Max tail) stay bounded while folded \
          entries grow, and the final stores match a same-seed \
          checkpointing-off twin (Off-match)"
         s sites duration ckpt_interval Checkpoint.default_retain)
    Registry.names
    (fun name ->
      (* Off twin first: its final stores are the reference the
         checkpointed run must reproduce exactly. *)
      let off =
        let obs = Obs.create () in
        let h =
          Harness.create ~config:fault_config ~obs ~seed ~sites ~method_name:name ()
        in
        ignore (drive name h);
        ignore (Harness.settle_result h);
        List.init sites (fun i -> Store.snapshot (Harness.store h ~site:i))
      in
      let obs = Obs.create ~series:true ~series_interval () in
      let h =
        Harness.create ~config:fault_config ~obs ~seed ~sites ~method_name:name
          ~checkpoint:
            {
              Checkpoint.interval = ckpt_interval;
              retain = Checkpoint.default_retain;
            }
          ()
      in
      let committed = drive name h in
      Harness.arm_series h ~until:duration;
      Harness.arm_checkpoints h ~until:duration;
      let settled = Harness.settle_result h = Harness.Drained in
      let c = Option.get (Harness.env h).Intf.checkpoint in
      (* Peak standing log depth over the sampled horizon, summed over
         sites: the quantity checkpointing bounds.  Compare with
         Folded, the cumulative entries absorbed into snapshots, which
         grows with the horizon. *)
      let depth = log_depth obs.Obs.series ~sites in
      let max_depth = ref 0.0 in
      Series.iter obs.Obs.series (fun smp ->
          let v = depth smp in
          if v > !max_depth then max_depth := v);
      [
        ("Method", name);
        int "Committed" !committed;
        int "Cuts" (sum_sites h (fun i -> Checkpoint.cuts c ~site:i));
        int "Folded" (sum_sites h (fun i -> Checkpoint.truncated_log c ~site:i));
        int "Journal GC" (sum_sites h (fun i -> Checkpoint.truncated_journal c ~site:i));
        int "Max depth" (int_of_float !max_depth);
        int "Final log" (sum_res h (fun r -> r.Intf.log_entries));
        int "WAL hw" (sum_res h (fun r -> r.Intf.wal_high_water));
        (* Counted from the checkpoint stats rather than the trace: over
           a days-long horizon the bounded trace ring wraps and evicts
           the early Recovery_replay events. *)
        int "Replays" (sum_sites h (fun i -> Checkpoint.tail_replays c ~site:i));
        int "Max tail"
          (List.fold_left
             (fun a i -> Stdlib.max a (Checkpoint.max_tail c ~site:i))
             0 (List.init sites Fun.id));
        bool "Off-match"
          (List.for_all2
             (fun snap i -> snap = Store.snapshot (Harness.store h ~site:i))
             off (List.init sites Fun.id));
        bool "Converged" (settled && Harness.converged h);
      ])

(* --- E19: audit certificates --------------------------------------- *)

(* Every method, over the same seeded nemesis schedule, in full and
   ring-sharded placement, with the runtime auditor tapped into the live
   event stream: all 14 runs must come back certified (zero violations),
   and the ledger columns show how tight the paper's epsilon bound is in
   practice — how many bounded queries actually hit their limit, and how
   much inconsistency was charged against reconstructed overlap. *)
let e19_audit_certificates () =
  let module Audit = Esr_obs.Audit in
  let module Sharding = Esr_store.Sharding in
  let sites = 4 in
  let duration = 2_000.0 in
  let epsilon = 4 in
  let schedule =
    Nemesis.generate ~seed ~sites ~duration:(duration *. 0.8) ()
  in
  Printf.printf "e19 nemesis schedule (seed %d): %s\n" seed
    (Schedule.to_spec schedule);
  grid
    ~title:
      (Printf.sprintf
         "E19: audit certificates — every method over the seeded nemesis \
          above, full and ring-sharded placement, epsilon = %d, with the \
          runtime auditor tapped into the live trace; Violations must be \
          0 everywhere, and the ledger columns measure bound tightness \
          (AtBound = queries charged exactly their epsilon, Exact = \
          query windows whose charge equals the reconstructed overlap \
          with concurrent update ETs)"
         epsilon)
    (cross Registry.names [ `Full; `Ring ])
    (fun (name, placement) ->
      let spec =
        {
          Spec.default with
          Spec.duration;
          n_keys = 24;
          epsilon = Epsilon.Limit epsilon;
        }
      in
      let placement_name, sharding =
        match placement with
        | `Full -> ("full", None)
        | `Ring ->
            ("ring", Some (Sharding.create ~policy:Sharding.Ring ~sites ()))
      in
      let obs = Obs.create ~tracing:true () in
      let audit =
        Audit.create ~label:(name ^ "/" ^ placement_name) ()
      in
      ignore
        (Scenario.run ~seed ?sharding ~obs ~audit ~faults:schedule ~sites
           ~method_name:name (Spec.for_method name spec));
      let report = Audit.finish audit in
      let s = report.Audit.summary in
      [
        ("Method", name);
        ("Placement", placement_name);
        int "Events" s.Audit.s_events;
        int "Queries" s.Audit.s_queries;
        int "AtBound" s.Audit.s_at_bound;
        int "Charged" s.Audit.s_charged_total;
        int "Windows" s.Audit.s_windows;
        int "Exact" s.Audit.s_windows_exact;
        int "MaxReplay" s.Audit.s_max_replay;
        int "Violations" (List.length report.Audit.violations);
        bool "Certified" (Audit.ok report);
      ])

let all =
  [
    ("e1_scalability", e1_scalability);
    ("e2_epsilon", e2_epsilon);
    ("e3_convergence", e3_convergence);
    ("e4_partition", e4_partition);
    ("e5_compensation", e5_compensation);
    ("e6_ritu_vtnc", e6_ritu_vtnc);
    ("e7_lock_counter", e7_lock_counter);
    ("e8_crash_recovery", e8_crash_recovery);
    ("e9_sagas", e9_sagas);
    ("e10_value_bound", e10_value_bound);
    ("e11_quasi", e11_quasi);
    ("e12_partition_merge", e12_partition_merge);
    ("e13_fault_availability", e13_fault_availability);
    ("e14_divergence_profile", e14_divergence_profile);
    ("a1_ordup_ordering", a1_ordup_ordering);
    ("a2_squeue_retry", a2_squeue_retry);
    ("e16_soak", e16_soak);
    ("e17_sharded_scale", e17_sharded_scale);
    ("e18_bounded_soak", e18_bounded_soak);
    ("e19_audit_certificates", e19_audit_certificates);
    (* Last on purpose: the big scale tier stays at the end so everything
       cheaper has already run if it is interrupted; since schema v6 the
       timed sweep samples peak heap per experiment (GC alarm), so the
       ordering no longer affects the recorded peaks. *)
    ("e15_scale", e15_scale);
  ]
