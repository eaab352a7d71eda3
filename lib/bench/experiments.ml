(* Quantitative experiments: the measured counterpart of the paper's
   claims.  Each function regenerates one row-set of EXPERIMENTS.md.

   The paper (a design paper) reports no absolute numbers, so the check
   is the *shape*: who wins, what is bounded, where behaviour changes.
   All runs are deterministic given the seed printed in the header.

   Execution model: every experiment first builds a list of row *jobs* —
   pure closures, each wrapping one self-contained simulation
   ([Scenario.run] or an inline harness) and returning one formatted
   table row — and fans them out over the {!Esr_exec.Pool} domain pool.
   Rows come back in submission order and are only then appended to the
   table, so the printed output is byte-identical to a sequential run
   for any worker count (ESR_DOMAINS=1 and =N produce the same bytes). *)

module Tablefmt = Esr_util.Tablefmt
module Stats = Esr_util.Stats
module Dist = Esr_util.Dist
module Prng = Esr_util.Prng
module Net = Esr_sim.Net
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Epsilon = Esr_core.Epsilon
module Intf = Esr_replica.Intf
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Pool = Esr_exec.Pool

let seed = 20260704

(* --- scale knob (E15) ----------------------------------------------- *)

(* Multiplier on the E15 scale-tier workload: sites, keys and update
   volume all scale linearly, so `--scale 0.02` (or ESR_SCALE=0.02) is a
   CI-sized smoke of the same shape.  1.0 is the full million-op tier. *)
let scale =
  ref
    (match Sys.getenv_opt "ESR_SCALE" with
    | None -> 1.0
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some f when f > 0.0 -> f
        | Some _ | None -> 1.0))

let set_scale f = if f > 0.0 then scale := f

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

let fmt_ms v = Printf.sprintf "%.1f" v
let fmt_pct num den =
  if den = 0 then "n/a" else Printf.sprintf "%.0f%%" (100.0 *. float_of_int num /. float_of_int den)

let profile_for name =
  match name with
  | "RITU" | "QUORUM" -> Spec.Blind_set
  | _ -> Spec.Additive

let stat r name = Option.value (Scenario.method_stat r name) ~default:0.0

(* Run the row jobs on the pool; results arrive in job order. *)
let par_rows jobs = Pool.map (fun job -> job ()) jobs

let add_rows t rows = List.iter (Tablefmt.add_row t) rows

(* Append rows with a separator after every [per_group] of them — the
   grids below are ordered outer-dimension-major, so this reproduces the
   per-outer-group separators of the sequential tables. *)
let add_grouped t ~per_group rows =
  List.iteri
    (fun i row ->
      Tablefmt.add_row t row;
      if (i + 1) mod per_group = 0 then Tablefmt.add_separator t)
    rows

(* ------------------------------------------------------------------ *)
(* E1: scalability — asynchronous methods vs synchronous baselines     *)
(* ------------------------------------------------------------------ *)

let e1_scalability () =
  let t =
    Tablefmt.create
      ~title:
        "E1: scaling the number of replicas (WAN links; update latency and \
         success; paper claim Sec 1/2.4: synchronous methods degrade with \
         size, asynchronous methods do not)"
      ~headers:
        [ "Method"; "Sites"; "Committed"; "Rejected"; "Upd lat p50 (ms)";
          "Upd lat p95 (ms)"; "Query lat p50 (ms)"; "Throughput (upd/s)" ]
  in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ] in
  let sites_list = [ 2; 4; 8; 16 ] in
  let jobs =
    List.concat_map
      (fun name ->
        List.map
          (fun sites () ->
            let spec =
              {
                Spec.default with
                Spec.duration = 4_000.0;
                update_rate = 0.02;
                query_rate = 0.02;
                n_keys = 24;
                ops_per_update = 1;
                keys_per_query = 1;
                profile = profile_for name;
                epsilon = Epsilon.Unlimited;
              }
            in
            let r = Scenario.run ~seed ~net_config:wan ~sites ~method_name:name spec in
            [
              name;
              Tablefmt.cell_int sites;
              Tablefmt.cell_int r.Scenario.committed;
              Tablefmt.cell_int r.Scenario.rejected;
              fmt_ms (Stats.median r.Scenario.update_latency);
              fmt_ms (Stats.percentile r.Scenario.update_latency 95.0);
              fmt_ms (Stats.median r.Scenario.query_latency);
              Printf.sprintf "%.1f" (Scenario.throughput r);
            ])
          sites_list)
      methods
  in
  add_grouped t ~per_group:(List.length sites_list) (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E2: the epsilon dial — bounded inconsistency, SR in the limit       *)
(* ------------------------------------------------------------------ *)

let e2_epsilon () =
  let t =
    Tablefmt.create
      ~title:
        "E2: query inconsistency vs epsilon (ORDUP, 6 sites, WAN; paper \
         claim Sec 2.2/3.1: error bounded by overlap, eps=0 recovers SR)"
      ~headers:
        [ "Epsilon"; "Max units charged"; "Mean units"; "Mean value error";
          "Max value error"; "SR fallbacks"; "Query lat p50 (ms)"; "Query lat p95 (ms)" ]
  in
  let jobs =
    List.map
      (fun eps () ->
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
        let charged = r.Scenario.charged in
        [
          Epsilon.spec_to_string eps;
          Tablefmt.cell_float (if Stats.count charged = 0 then 0.0 else Stats.max charged);
          Printf.sprintf "%.2f" (Stats.mean charged);
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.value_error);
          Tablefmt.cell_float
            (if Stats.count r.Scenario.value_error = 0 then 0.0
             else Stats.max r.Scenario.value_error);
          Tablefmt.cell_int r.Scenario.fallback_queries;
          fmt_ms (Stats.median r.Scenario.query_latency);
          fmt_ms (Stats.percentile r.Scenario.query_latency 95.0);
        ])
      [
        Epsilon.Limit 0; Epsilon.Limit 1; Epsilon.Limit 2; Epsilon.Limit 4;
        Epsilon.Limit 8; Epsilon.Unlimited;
      ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E3: convergence at quiescence under a hostile network               *)
(* ------------------------------------------------------------------ *)

let e3_convergence () =
  let t =
    Tablefmt.create
      ~title:
        "E3: convergence at quiescence (8% loss, 5% duplication, heavy \
         reordering; paper claim Sec 2.2: replicas converge to 1SR when \
         queued MSets are processed)"
      ~headers:
        [ "Method"; "Committed"; "Settled"; "Replicas equal"; "Quiesce time (ms)";
          "Messages sent"; "Messages lost" ]
  in
  let chaos =
    { Net.latency = Dist.Uniform (2.0, 150.0); drop_probability = 0.08; duplicate_probability = 0.05 }
  in
  let jobs =
    List.map
      (fun name () ->
        let spec =
          {
            Spec.default with
            Spec.duration = 3_000.0;
            update_rate = 0.04;
            query_rate = 0.02;
            n_keys = 16;
            ops_per_update = (if name = "QUORUM" then 1 else 2);
            profile = profile_for name;
          }
        in
        let r = Scenario.run ~seed ~net_config:chaos ~sites:5 ~method_name:name spec in
        [
          name;
          Tablefmt.cell_int r.Scenario.committed;
          Tablefmt.cell_bool r.Scenario.settled;
          Tablefmt.cell_bool r.Scenario.converged;
          fmt_ms r.Scenario.quiesce_time;
          Tablefmt.cell_int r.Scenario.net_counters.Net.sent;
          Tablefmt.cell_int r.Scenario.net_counters.Net.lost;
        ])
      [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E4: availability under a network partition                          *)
(* ------------------------------------------------------------------ *)

let e4_partition () =
  let t =
    Tablefmt.create
      ~title:
        "E4: availability during a 2+2 partition, 1200ms window (paper \
         claim Sec 1/5.3: asynchronous methods keep serving; synchronous \
         ones stall)"
      ~headers:
        [ "Method"; "Updates committed in window"; "Updates submitted";
          "Update availability"; "Queries served in window"; "Query availability";
          "Converged after heal" ]
  in
  let partition =
    { Scenario.p_start = 1_000.0; p_end = 2_200.0; groups = [ [ 0; 1 ]; [ 2; 3 ] ] }
  in
  let jobs =
    List.map
      (fun name () ->
        let spec =
          {
            Spec.default with
            Spec.duration = 3_000.0;
            update_rate = 0.03;
            query_rate = 0.03;
            n_keys = 16;
            ops_per_update = 1;
            keys_per_query = 1;
            profile = profile_for name;
          }
        in
        let config = { Intf.default_config with Intf.twopc_timeout = 20_000.0 } in
        let r =
          Scenario.run ~seed ~config ~sites:4 ~method_name:name ~partition spec
        in
        let w = Option.get r.Scenario.window in
        [
          name;
          Tablefmt.cell_int w.Scenario.w_updates_committed;
          Tablefmt.cell_int w.Scenario.w_updates_submitted;
          fmt_pct w.Scenario.w_updates_committed w.Scenario.w_updates_submitted;
          Tablefmt.cell_int w.Scenario.w_queries_served;
          fmt_pct w.Scenario.w_queries_served w.Scenario.w_queries_submitted;
          Tablefmt.cell_bool r.Scenario.converged;
        ])
      [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E5: the cost of backward replica control (COMPE)                    *)
(* ------------------------------------------------------------------ *)

let e5_compensation () =
  let t =
    Tablefmt.create
      ~title:
        "E5: compensation cost vs abort rate and operation mix (COMPE, 4 \
         sites; paper Sec 4: commutative logs compensate in place, \
         non-commutative logs need undo/redo of the tail)"
      ~headers:
        [ "Mix"; "Abort rate"; "Aborts"; "Fast comps"; "Full rollbacks";
          "Mean rollback depth"; "Replayed ops"; "Tainted queries";
          "Forced charges"; "Converged" ]
  in
  let mixes =
    [ ("commutative (Add)", Spec.Additive); ("30% Mul (non-comm.)", Spec.Mixed_arith 0.3) ]
  in
  let abort_ps = [ 0.0; 0.1; 0.2; 0.3 ] in
  let jobs =
    List.concat_map
      (fun (mix_name, profile) ->
        List.map
          (fun abort_p () ->
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
            let full = stat r "full_rollbacks" in
            let depth =
              if full = 0.0 then 0.0 else stat r "rollback_depth_total" /. full
            in
            [
              mix_name;
              Printf.sprintf "%.0f%%" (abort_p *. 100.0);
              Tablefmt.cell_float (stat r "aborts");
              Tablefmt.cell_float (stat r "fast_compensations");
              Tablefmt.cell_float full;
              Printf.sprintf "%.1f" depth;
              Tablefmt.cell_float (stat r "replayed_ops");
              Tablefmt.cell_float (stat r "tainted_queries");
              Tablefmt.cell_float (stat r "forced_charges");
              Tablefmt.cell_bool r.Scenario.converged;
            ])
          abort_ps)
      mixes
  in
  add_grouped t ~per_group:(List.length abort_ps) (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E6: RITU multiversion — freshness vs consistency at the VTNC        *)
(* ------------------------------------------------------------------ *)

let e6_ritu_vtnc () =
  let t =
    Tablefmt.create
      ~title:
        "E6: RITU multiversion reads vs epsilon (5 sites, WAN; paper Sec \
         3.3: reads above the VTNC cost inconsistency units; eps=0 reads \
         the stable prefix)"
      ~headers:
        [ "Epsilon"; "Fresh reads (above VTNC)"; "VTNC reads"; "Mean units";
          "Mean staleness (mismatched keys)"; "Converged" ]
  in
  let jobs =
    List.map
      (fun eps () ->
        let spec =
          {
            Spec.duration = 4_000.0;
            update_rate = 0.05;
            query_rate = 0.05;
            n_keys = 8;
            zipf_theta = 0.9;
            ops_per_update = 1;
            keys_per_query = 2;
            profile = Spec.Blind_set;
            epsilon = eps;
          }
        in
        let config = { Intf.default_config with Intf.ritu_mode = `Multi } in
        let r = Scenario.run ~seed ~config ~net_config:wan ~sites:5 ~method_name:"RITU" spec in
        [
          Epsilon.spec_to_string eps;
          Tablefmt.cell_float (stat r "fresh_reads");
          Tablefmt.cell_float (stat r "vtnc_reads");
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.charged);
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.value_error);
          Tablefmt.cell_bool r.Scenario.converged;
        ])
      [ Epsilon.Limit 0; Epsilon.Limit 1; Epsilon.Limit 2; Epsilon.Unlimited ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E7: COMMU lock-counter back-pressure                                *)
(* ------------------------------------------------------------------ *)

let e7_lock_counter () =
  let t =
    Tablefmt.create
      ~title:
        "E7: COMMU update-side lock-counter limit (4 sites, WAN, hot key; \
         paper Sec 3.2: limiting the counter trades update waiting for \
         query admissibility)"
      ~headers:
        [ "Limit"; "Update waits"; "Upd lat p50 (ms)"; "Upd lat p95 (ms)";
          "Mean query units"; "Max query units"; "Query waits"; "Committed" ]
  in
  let jobs =
    List.map
      (fun limit () ->
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
          (match limit with None -> "inf" | Some l -> string_of_int l);
          Tablefmt.cell_float (stat r "update_waits");
          fmt_ms (Stats.median r.Scenario.update_latency);
          fmt_ms (Stats.percentile r.Scenario.update_latency 95.0);
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.charged);
          Tablefmt.cell_float
            (if Stats.count r.Scenario.charged = 0 then 0.0 else Stats.max r.Scenario.charged);
          Tablefmt.cell_float (stat r "query_waits");
          Tablefmt.cell_int r.Scenario.committed;
        ])
      [ None; Some 8; Some 4; Some 2; Some 1 ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E8: site crash and recovery                                         *)
(* ------------------------------------------------------------------ *)

let e8_crash_recovery () =
  let t =
    Tablefmt.create
      ~title:
        "E8: one of 4 sites crashes for a window, then recovers (paper \
         Sec 2.2: stable queues make replica control robust to site \
         failures); updates continue at live sites"
      ~headers:
        [ "Method"; "Crash window (ms)"; "Committed"; "Settled";
          "Converged after recovery"; "Retx-heavy? (msgs sent)" ]
  in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ] in
  let windows = [ 500.0; 2_000.0 ] in
  let jobs =
    List.concat_map
      (fun name ->
        List.map
          (fun window () ->
            let module Harness = Esr_replica.Harness in
            let config = { Intf.default_config with Intf.twopc_timeout = 30_000.0 } in
            let h = Harness.create ~config ~seed ~sites:4 ~method_name:name () in
            let engine = Harness.engine h in
            let net = Harness.net h in
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
                     let intents =
                       match name with
                       | "RITU" | "QUORUM" -> [ Intf.Set ("k", Esr_store.Value.Int i) ]
                       | _ -> [ Intf.Add ("k", 1) ]
                     in
                     Harness.submit_update h ~origin intents (function
                       | Intf.Committed _ -> incr committed
                       | Intf.Rejected _ -> ())))
            done;
            ignore (Engine.schedule_at engine ~time:400.0 (fun () -> Net.crash net 2));
            ignore
              (Engine.schedule_at engine ~time:(400.0 +. window) (fun () ->
                   Net.recover net 2));
            let settled = Harness.settle_result h = Harness.Drained in
            [
              name;
              Tablefmt.cell_float window;
              Tablefmt.cell_int !committed;
              Tablefmt.cell_bool settled;
              Tablefmt.cell_bool (Harness.converged h);
              Tablefmt.cell_int (Net.counters net).Net.sent;
            ])
          windows)
      methods
  in
  add_grouped t ~per_group:(List.length windows) (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E9: saga-scoped lock-counters                                       *)
(* ------------------------------------------------------------------ *)

let e9_sagas () =
  let t =
    Tablefmt.create
      ~title:
        "E9: sagas vs independent updates (COMPE, 3 sites; paper Sec 4.2: \
         holding lock-counters to saga end gives queries a conservative \
         upper bound on the saga's total potential inconsistency)"
      ~headers:
        [ "Workload"; "Abort rate"; "Committed"; "Mean query units";
          "Max query units"; "Revokes"; "Converged" ]
  in
  let module Compe = Esr_replica.Compe in
  let run ~label ~as_saga ~abort_p () =
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
             let count = function
               | Intf.Committed _ -> incr committed
               | Intf.Rejected _ -> ()
             in
             if as_saga then Compe.submit_saga sys ~origin:(i mod 3) (steps i) count
             else
               List.iter
                 (fun step -> Compe.submit_update sys ~origin:(i mod 3) step count)
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
    let stat name =
      Option.value (List.assoc_opt name (Compe.stats sys)) ~default:0.0
    in
    [
      label;
      Printf.sprintf "%.0f%%" (abort_p *. 100.0);
      Tablefmt.cell_int !committed;
      Printf.sprintf "%.2f" (Stats.mean units);
      Tablefmt.cell_float (if Stats.count units = 0 then 0.0 else Stats.max units);
      Tablefmt.cell_float (stat "revokes");
      Tablefmt.cell_bool (settled && Compe.converged sys);
    ]
  in
  let jobs =
    List.concat_map
      (fun abort_p ->
        [
          run ~label:"3-step sagas" ~as_saga:true ~abort_p;
          run ~label:"3 independent updates" ~as_saga:false ~abort_p;
        ])
      [ 0.0; 0.15 ]
  in
  add_grouped t ~per_group:2 (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E10: value-bounded divergence (COMMU)                               *)
(* ------------------------------------------------------------------ *)

let e10_value_bound () =
  let sites = 4 in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "E10: value-bounded divergence (COMMU, %d sites, WAN; Sec 5.1's \
            'data value changed asynchronously' criterion): per-key query \
            error is bounded by (sites-1) x limit"
           sites)
      ~headers:
        [ "Value limit L"; "Bound (n-1)L"; "Max query error"; "Mean query error";
          "Bound holds"; "Update waits"; "Upd lat p95 (ms)"; "Committed" ]
  in
  let jobs =
    List.map
      (fun limit () ->
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
        let worst =
          if Stats.count r.Scenario.value_error = 0 then 0.0
          else Stats.max r.Scenario.value_error
        in
        let bound =
          match limit with
          | None -> infinity
          | Some l -> float_of_int (sites - 1) *. l
        in
        [
          (match limit with None -> "inf" | Some l -> Printf.sprintf "%.0f" l);
          (match limit with None -> "inf" | Some _ -> Printf.sprintf "%.0f" bound);
          Printf.sprintf "%.0f" worst;
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.value_error);
          Tablefmt.cell_bool (worst <= bound);
          Tablefmt.cell_float (stat r "update_waits");
          fmt_ms (Stats.percentile r.Scenario.update_latency 95.0);
          Tablefmt.cell_int r.Scenario.committed;
        ])
      [ None; Some 50.0; Some 25.0; Some 10.0; Some 5.0 ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E11: quasi-copies closeness conditions (Sec 5.2 comparator)         *)
(* ------------------------------------------------------------------ *)

let e11_quasi () =
  let t =
    Tablefmt.create
      ~title:
        "E11: quasi-copies coherency conditions (QUASI comparator, 4 \
         sites, WAN; Sec 5.2: inconsistency comes only from propagation \
         lag, tuned by the closeness spec - at the price of refresh \
         traffic and no per-query dial)"
      ~headers:
        [ "Closeness spec"; "Refreshes"; "Messages sent"; "Mean query error";
          "Max query error"; "Upd lat p50 (ms)"; "Converged" ]
  in
  let jobs =
    List.map
      (fun (label, refresh) () ->
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
          label;
          Tablefmt.cell_float (stat r "refreshes");
          Tablefmt.cell_int r.Scenario.net_counters.Net.sent;
          Printf.sprintf "%.2f" (Stats.mean r.Scenario.value_error);
          Tablefmt.cell_float
            (if Stats.count r.Scenario.value_error = 0 then 0.0
             else Stats.max r.Scenario.value_error);
          fmt_ms (Stats.median r.Scenario.update_latency);
          Tablefmt.cell_bool r.Scenario.converged;
        ])
      [
        ("immediate", `Immediate);
        ("periodic 100ms", `Periodic 100.0);
        ("periodic 500ms", `Periodic 500.0);
        ("drift 10", `Drift 10.0);
        ("drift 50", `Drift 50.0);
      ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E12: partition length — ESR dynamic control vs off-line log merge   *)
(* ------------------------------------------------------------------ *)

let e12_partition_merge () =
  let t =
    Tablefmt.create
      ~title:
        "E12: prolonged partitions (Sec 5.3): ESR methods control \
         divergence while partitioned and just drain queues at heal; \
         optimistic-1SR reconciliation merges logs off-line and must roll \
         back conflicting work that grows with partition length (mixed \
         30% overwrite workload)"
      ~headers:
        [ "Partition (ms)"; "COMMU catch-up after heal (ms)"; "COMMU rolled back";
          "Merge: minority ETs"; "Merge: rolled back"; "Merge: conflict keys" ]
  in
  let jobs =
    List.map
      (fun duration () ->
        (* (a) ESR dynamic: COMMU runs straight through the partition. *)
        let partition =
          { Scenario.p_start = 500.0; p_end = 500.0 +. duration; groups = [ [ 0; 1 ]; [ 2; 3 ] ] }
        in
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
          Scenario.run ~seed ~sites:4 ~method_name:"COMMU" ~partition spec
        in
        let catch_up = Float.max 0.0 (r.Scenario.quiesce_time -. (500.0 +. duration)) in
        (* (b) off-line merge: two partition-side logs of the same length,
           mixed commutative/overwrite operations on shared keys. *)
        let module Et = Esr_core.Et in
        let module Op = Esr_store.Op in
        let module Logmerge = Esr_core.Logmerge in
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
        let minority_ets = List.length (Esr_core.Hist.ets log_b) in
        [
          Printf.sprintf "%.0f" duration;
          fmt_ms catch_up;
          "0";
          Tablefmt.cell_int minority_ets;
          Tablefmt.cell_int (List.length m.Logmerge.rolled_back);
          Tablefmt.cell_int (List.length m.Logmerge.conflict_keys);
        ])
      [ 500.0; 1_000.0; 2_000.0; 4_000.0 ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E13: availability + staleness under real crash-recovery faults      *)
(* ------------------------------------------------------------------ *)

(* Unlike E8 (which only isolates a site at the network), these faults go
   through the full crash-recovery path: the crashed site's volatile
   state is wiped, in-progress work there fails degraded, and recovery
   replays the durable log before the stable queues catch the site up. *)
let e13_fault_availability () =
  let module Harness = Esr_replica.Harness in
  let module Schedule = Esr_fault.Schedule in
  let module Oracle = Esr_workload.Oracle in
  let module Obs = Esr_obs.Obs in
  let module Trace = Esr_obs.Trace in
  let t =
    Tablefmt.create
      ~title:
        "E13: availability and query staleness under faults with full \
         crash-recovery semantics — crash@600:1 recover@1400:1 then a 2+2 \
         partition@1800 heal@2600 (volatile state wiped at the crash, \
         durable log replayed at recovery; paper Sec 1/5.3: asynchronous \
         methods keep serving through both windows)"
      ~headers:
        [ "Method"; "Upd avail (faulty)"; "Upd avail (clear)";
          "Degraded queries"; "Staleness (faulty)"; "Staleness (clear)";
          "Log replays"; "Converged" ]
  in
  let schedule =
    Schedule.make
      [
        { Schedule.at = 600.0; action = Schedule.Crash 1 };
        { Schedule.at = 1_400.0; action = Schedule.Recover 1 };
        { Schedule.at = 1_800.0; action = Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
        { Schedule.at = 2_600.0; action = Schedule.Heal };
      ]
  in
  let faulty time =
    (time >= 600.0 && time < 1_400.0) || (time >= 1_800.0 && time < 2_600.0)
  in
  let jobs =
    List.map
      (fun name () ->
        let obs = Obs.create ~tracing:true () in
        let config = { Intf.default_config with Intf.twopc_timeout = 30_000.0 } in
        let h = Harness.create ~config ~obs ~seed ~sites:4 ~method_name:name () in
        let engine = Harness.engine h in
        let net = Harness.net h in
        let oracle = Oracle.create ~size:8 () in
        let metric =
          match name with "RITU" | "QUORUM" -> `Mismatch | _ -> `Distance
        in
        let f_sub = ref 0 and f_com = ref 0 and c_sub = ref 0 and c_com = ref 0 in
        let degraded = ref 0 in
        let f_stale = Stats.create () and c_stale = Stats.create () in
        (* Updates every 20ms from rotating origins over 8 keys. *)
        for i = 0 to 159 do
          let time = float_of_int (i + 1) *. 20.0 in
          ignore
            (Engine.schedule_at engine ~time (fun () ->
                 incr (if faulty time then f_sub else c_sub);
                 let key = Printf.sprintf "k%d" (i mod 8) in
                 let intents =
                   match name with
                   | "RITU" | "QUORUM" ->
                       [ Intf.Set (key, Esr_store.Value.Int (1_000 + i)) ]
                   | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
                 in
                 Harness.submit_update h ~origin:(i mod 4) intents (function
                   | Intf.Committed { committed_at } ->
                       (* Bucket commits by commit time (as E4 does): an
                          update that only commits after the heal was not
                          available during the fault. *)
                       incr (if faulty committed_at then f_com else c_com);
                       Oracle.apply oracle intents
                   | Intf.Rejected _ -> ())))
        done;
        (* Queries every 35ms from rotating sites; staleness = distance of
           the answer from the committed-prefix oracle at serve time. *)
        for i = 0 to 90 do
          let time = float_of_int (i + 1) *. 35.0 in
          ignore
            (Engine.schedule_at engine ~time (fun () ->
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
        Harness.inject_faults h schedule;
        let settled = Harness.settle_result h = Harness.Drained in
        let replays = ref 0 in
        Trace.iter obs.Obs.trace (fun r ->
            match r.Trace.ev with
            | Trace.Recovery_replay _ -> incr replays
            | _ -> ());
        [
          name;
          fmt_pct !f_com !f_sub;
          fmt_pct !c_com !c_sub;
          Tablefmt.cell_int !degraded;
          Printf.sprintf "%.2f" (Stats.mean f_stale);
          Printf.sprintf "%.2f" (Stats.mean c_stale);
          Tablefmt.cell_int !replays;
          Tablefmt.cell_bool (settled && Harness.converged h);
        ])
      [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

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
  let module Harness = Esr_replica.Harness in
  let module Schedule = Esr_fault.Schedule in
  let module Obs = Esr_obs.Obs in
  let module Series = Esr_obs.Series in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ] in
  let t =
    Tablefmt.create
      ~title:
        "E14: divergence profile — max replica spread (distance between the \
         most and least advanced copy of any key) sampled every 100ms over \
         the E13 fault schedule (crash@600:1 recover@1400:1 partition@1800 \
         heal@2600); * marks rows inside a fault window"
      ~headers:(("t (ms)" :: methods) @ [ "fault?" ])
  in
  let horizon = 3_400.0 in
  let faulty time =
    (time >= 600.0 && time < 1_400.0) || (time >= 1_800.0 && time < 2_600.0)
  in
  let schedule =
    Schedule.make
      [
        { Schedule.at = 600.0; action = Schedule.Crash 1 };
        { Schedule.at = 1_400.0; action = Schedule.Recover 1 };
        { Schedule.at = 1_800.0; action = Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
        { Schedule.at = 2_600.0; action = Schedule.Heal };
      ]
  in
  (* Each job returns (spread at time t, peak spread, time of the last
     divergent sample); the same update stream as E13, queries omitted
     since replica spread is a pure update-propagation phenomenon. *)
  let jobs =
    List.map
      (fun name () ->
        let obs = Obs.create ~series:true ~series_interval:100.0 () in
        let config = { Intf.default_config with Intf.twopc_timeout = 30_000.0 } in
        let h = Harness.create ~config ~obs ~seed ~sites:4 ~method_name:name () in
        let engine = Harness.engine h in
        for i = 0 to 159 do
          let time = float_of_int (i + 1) *. 20.0 in
          ignore
            (Engine.schedule_at engine ~time (fun () ->
                 let key = Printf.sprintf "k%d" (i mod 8) in
                 let intents =
                   match name with
                   | "RITU" | "QUORUM" ->
                       [ Intf.Set (key, Esr_store.Value.Int (1_000 + i)) ]
                   | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
                 in
                 Harness.submit_update h ~origin:(i mod 4) intents (fun _ -> ())))
        done;
        Harness.inject_faults h schedule;
        Harness.arm_series h ~until:horizon;
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
      methods
  in
  let profiles = Pool.map (fun job -> job ()) jobs in
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
        @ [ (if faulty time then "*" else "") ]))
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
  let t =
    Tablefmt.create
      ~title:
        "A1 (ablation): ORDUP order source — central sequencer vs Lamport \
         timestamps (paper Sec 3.1: with timestamps, MSets must wait until \
         no earlier stamp can arrive)"
      ~headers:
        [ "Ordering"; "Sites"; "Upd lat p50 (ms)"; "Upd lat p95 (ms)";
          "Quiesce time (ms)"; "Committed" ]
  in
  let sites_list = [ 4; 8 ] in
  let jobs =
    List.concat_map
      (fun (label, ordering, flush_every) ->
        List.map
          (fun sites () ->
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
              label;
              Tablefmt.cell_int sites;
              fmt_ms (Stats.median r.Scenario.update_latency);
              fmt_ms (Stats.percentile r.Scenario.update_latency 95.0);
              fmt_ms r.Scenario.quiesce_time;
              Tablefmt.cell_int r.Scenario.committed;
            ])
          sites_list)
      [
        ("sequencer", `Sequencer, None);
        ("lamport", `Lamport, None);
        ("lamport + 50ms heartbeats", `Lamport, Some 50.0);
      ]
  in
  add_grouped t ~per_group:(List.length sites_list) (par_rows jobs);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* A2: ablation — stable-queue retry interval vs loss                  *)
(* ------------------------------------------------------------------ *)

let a2_squeue_retry () =
  let t =
    Tablefmt.create
      ~title:
        "A2 (ablation): stable-queue retry interval vs link loss — time to \
         drain 200 broadcast MSets (4 sites, 10ms links)"
      ~headers:
        [ "Loss"; "Retry interval (ms)"; "Drain time (ms)"; "Retransmissions";
          "Duplicates suppressed" ]
  in
  let retries = [ 25.0; 50.0; 100.0; 200.0 ] in
  let jobs =
    List.concat_map
      (fun drop ->
        List.map
          (fun retry () ->
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
              Printf.sprintf "%.0f%%" (drop *. 100.0);
              Tablefmt.cell_float retry;
              fmt_ms (Engine.now engine);
              Tablefmt.cell_int c.Squeue.retransmissions;
              Tablefmt.cell_int c.Squeue.duplicates_suppressed;
            ])
          retries)
      [ 0.0; 0.05; 0.1; 0.2 ]
  in
  add_grouped t ~per_group:(List.length retries) (par_rows jobs);
  Tablefmt.print t

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
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "E15: scale tier at scale %g — %d sites, %d keys, ~%.0f update \
            ETs x %d ops applied at every replica (async methods; \
            deterministic columns only, throughput lands in \
            BENCH_experiments.json)"
           s sites n_keys (duration *. update_rate) ops_per_update)
      ~headers:
        [ "Method"; "Committed"; "Rejected"; "Applied ops"; "Msgs sent";
          "Settled"; "Replicas equal" ]
  in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "QUASI" ] in
  let t0 = Unix.gettimeofday () in
  let jobs =
    List.map
      (fun name () ->
        let spec =
          {
            Spec.duration;
            update_rate;
            query_rate = 0.002;
            n_keys;
            zipf_theta = 0.6;
            ops_per_update;
            keys_per_query = 1;
            epsilon = Epsilon.Unlimited;
            profile = profile_for name;
          }
        in
        let r = Scenario.run ~seed ~sites ~method_name:name spec in
        let applied = r.Scenario.committed * ops_per_update * sites in
        ( applied,
          [
            name;
            Tablefmt.cell_int r.Scenario.committed;
            Tablefmt.cell_int r.Scenario.rejected;
            Tablefmt.cell_int applied;
            Tablefmt.cell_int r.Scenario.net_counters.Net.sent;
            Tablefmt.cell_bool r.Scenario.settled;
            Tablefmt.cell_bool r.Scenario.converged;
          ] ))
      methods
  in
  let results = par_rows jobs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let applied = List.fold_left (fun a (n, _) -> a + n) 0 results in
  note_applied applied;
  add_rows t (List.map snd results);
  Tablefmt.print t;
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
  let module Harness = Esr_replica.Harness in
  let module Obs = Esr_obs.Obs in
  let module Series = Esr_obs.Series in
  let module Trace = Esr_obs.Trace in
  let module Prof = Esr_obs.Prof in
  let module Report = Esr_obs.Report in
  let module Openmetrics = Esr_obs.Openmetrics in
  let module Metrics = Esr_obs.Metrics in
  let module Nemesis = Esr_fault.Nemesis in
  let module Schedule = Esr_fault.Schedule in
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
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "E16: long soak at scale %g — %d sites, %.0f virtual ms of \
            sustained updates under the seeded nemesis above; durable \
            log / WAL / journal growth summed over sites (cumulative \
            counters grow, standing depth drains to 0 at quiescence)"
           s sites duration)
      ~headers:
        [ "Method"; "Committed"; "Log entries"; "Log KB"; "WAL appends";
          "Journal enq"; "Journal depth"; "Replays";
          "Log growth /1k ms"; "Converged" ]
  in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ] in
  let jobs =
    List.map
      (fun name () ->
        let obs =
          Obs.create ~tracing:true ~series:true ~series_interval:interval
            ~profiling ()
        in
        let config =
          { Intf.default_config with Intf.twopc_timeout = 30_000.0 }
        in
        let h = Harness.create ~config ~obs ~seed ~sites ~method_name:name () in
        let engine = Harness.engine h in
        let committed = ref 0 in
        for i = 0 to n_updates - 1 do
          let time = float_of_int (i + 1) *. update_every in
          ignore
            (Engine.schedule_at engine ~time (fun () ->
                 let key = Printf.sprintf "k%d" (i mod 16) in
                 let intents =
                   match name with
                   | "RITU" | "QUORUM" ->
                       [ Intf.Set (key, Esr_store.Value.Int (1_000 + i)) ]
                   | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
                 in
                 Harness.submit_update h ~origin:(i mod sites) intents
                   (function
                     | Intf.Committed _ -> incr committed
                     | Intf.Rejected _ -> ())))
        done;
        Harness.inject_faults h schedule;
        Harness.arm_series h ~until:duration;
        let settled = Harness.settle_result h = Harness.Drained in
        let res site = Intf.boxed_resources (Harness.system h) ~site in
        let sum f =
          List.fold_left (fun a i -> a + f (res i)) 0 (List.init sites Fun.id)
        in
        let replays = ref 0 in
        Trace.iter obs.Obs.trace (fun r ->
            match r.Trace.ev with
            | Trace.Recovery_replay _ -> incr replays
            | _ -> ());
        (* Growth rate of the summed durable log over the sampled window
           (virtual time, hence deterministic). *)
        let series = obs.Obs.series in
        let log_cols =
          List.filter_map
            (fun i ->
              Series.column_index series
                (Printf.sprintf "res/log_entries.s%d" i))
            (List.init sites Fun.id)
        in
        let first = ref None and last = ref None in
        Series.iter series (fun smp ->
            if !first = None then first := Some smp;
            last := Some smp);
        let sum_at (smp : Series.sample) =
          List.fold_left (fun a c -> a +. smp.Series.values.(c)) 0.0 log_cols
        in
        let growth =
          match (!first, !last) with
          | Some f, Some l when l.Series.at > f.Series.at ->
              (sum_at l -. sum_at f) /. (l.Series.at -. f.Series.at) *. 1000.0
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
        let applied = sum (fun r -> r.Intf.log_entries) in
        ( applied,
          [
            name;
            Tablefmt.cell_int !committed;
            Tablefmt.cell_int (sum (fun r -> r.Intf.log_entries));
            Printf.sprintf "%.1f"
              (float_of_int (sum (fun r -> r.Intf.log_bytes)) /. 1024.0);
            Tablefmt.cell_int (sum (fun r -> r.Intf.wal_appended));
            Tablefmt.cell_int (sum (fun r -> r.Intf.journal_enqueued));
            Tablefmt.cell_int (sum (fun r -> r.Intf.journal_depth));
            Tablefmt.cell_int !replays;
            Printf.sprintf "%.1f" growth;
            Tablefmt.cell_bool (settled && Harness.converged h);
          ] ))
      methods
  in
  let results = par_rows jobs in
  note_applied (List.fold_left (fun a (n, _) -> a + n) 0 results);
  add_rows t (List.map snd results);
  Tablefmt.print t

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
  let module Obs = Esr_obs.Obs in
  let module Metrics = Esr_obs.Metrics in
  let s = !scale in
  let sites = Stdlib.max 8 (int_of_float ((200.0 *. s) +. 0.5)) in
  let factor = 3 in
  let n_keys = 4_096 in
  let duration = 2_000.0 in
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
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "QUASI" ] in
  let ops_per_update = 2 in
  let factors = [ sites; factor ] in
  let jobs =
    List.concat_map
      (fun name ->
        List.map
          (fun copies () ->
            let spec =
              {
                Spec.duration;
                update_rate = 0.25;
                query_rate = 0.01;
                n_keys;
                zipf_theta = 0.6;
                ops_per_update;
                keys_per_query = 1;
                epsilon = Epsilon.Unlimited;
                profile = profile_for name;
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
              Scenario.run ~seed ?sharding ~obs ~sites ~method_name:name spec
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
            let applied = r.Scenario.committed * ops_per_update * copies in
            (applied, (name, copies, r, store_words)))
          factors)
      methods
  in
  let results = par_rows jobs in
  note_applied (List.fold_left (fun a (n, _) -> a + n) 0 results);
  (* Pair each sharded run with its full-replication twin (they are
     adjacent in job order) to print the fanout ratio. *)
  let msgs_per_update (r : Scenario.result) =
    if r.Scenario.committed = 0 then 0.0
    else
      float_of_int r.Scenario.net_counters.Net.sent
      /. float_of_int r.Scenario.committed
  in
  let full_mpu = Hashtbl.create 8 in
  List.iter
    (fun (_, (name, copies, r, _)) ->
      if copies = sites then Hashtbl.replace full_mpu name (msgs_per_update r))
    results;
  List.iter
    (fun (_, (name, copies, r, store_words)) ->
      let mpu = msgs_per_update r in
      let ratio =
        match Hashtbl.find_opt full_mpu name with
        | Some f when f > 0.0 -> Printf.sprintf "%.3fx" (mpu /. f)
        | _ -> "n/a"
      in
      Tablefmt.add_row t
        [
          name;
          Tablefmt.cell_int copies;
          Tablefmt.cell_int r.Scenario.committed;
          Tablefmt.cell_int r.Scenario.net_counters.Net.sent;
          Printf.sprintf "%.1f" mpu;
          ratio;
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
  let module Harness = Esr_replica.Harness in
  let module Obs = Esr_obs.Obs in
  let module Series = Esr_obs.Series in
  let module Checkpoint = Esr_replica.Checkpoint in
  let module Nemesis = Esr_fault.Nemesis in
  let module Schedule = Esr_fault.Schedule in
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
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "E18: bounded soak at scale %g — %d sites, %.0f virtual ms of \
            sustained updates under the seeded nemesis above, checkpoint \
            cut every %.0f ms (retain %d); standing log depth (Max depth) \
            and replay length (Max tail) stay bounded while folded \
            entries grow, and the final stores match a same-seed \
            checkpointing-off twin (Off-match)"
           s sites duration ckpt_interval Checkpoint.default_retain)
      ~headers:
        [ "Method"; "Committed"; "Cuts"; "Folded"; "Journal GC";
          "Max depth"; "Final log"; "WAL hw"; "Replays"; "Max tail";
          "Off-match"; "Converged" ]
  in
  let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ] in
  let config = { Intf.default_config with Intf.twopc_timeout = 30_000.0 } in
  (* Identical workload for the checkpointed run and its off twin: same
     arrival times, same intents, same fault schedule. *)
  let drive name h =
    let engine = Harness.engine h in
    let committed = ref 0 in
    for i = 0 to n_updates - 1 do
      let time = float_of_int (i + 1) *. update_every in
      ignore
        (Engine.schedule_at engine ~time (fun () ->
             let key = Printf.sprintf "k%d" (i mod 16) in
             let intents =
               match name with
               | "RITU" | "QUORUM" ->
                   [ Intf.Set (key, Esr_store.Value.Int (1_000 + i)) ]
               | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
             in
             Harness.submit_update h ~origin:(i mod sites) intents (function
               | Intf.Committed _ -> incr committed
               | Intf.Rejected _ -> ())))
    done;
    Harness.inject_faults h schedule;
    committed
  in
  let jobs =
    List.map
      (fun name () ->
        (* Off twin first: its final stores are the reference the
           checkpointed run must reproduce exactly. *)
        let off =
          let obs = Obs.create () in
          let h =
            Harness.create ~config ~obs ~seed ~sites ~method_name:name ()
          in
          ignore (drive name h);
          ignore (Harness.settle_result h);
          List.init sites (fun i -> Store.snapshot (Harness.store h ~site:i))
        in
        let obs = Obs.create ~series:true ~series_interval () in
        let h =
          Harness.create ~config ~obs ~seed ~sites ~method_name:name
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
        let c =
          match (Harness.env h).Intf.checkpoint with
          | Some c -> c
          | None -> assert false
        in
        let sum f =
          List.fold_left (fun a i -> a + f i) 0 (List.init sites Fun.id)
        in
        let maxi f =
          List.fold_left (fun a i -> Stdlib.max a (f i)) 0
            (List.init sites Fun.id)
        in
        let res site = Intf.boxed_resources (Harness.system h) ~site in
        (* Counted from the checkpoint stats rather than the trace: over
           a days-long horizon the bounded trace ring wraps and evicts
           the early Recovery_replay events. *)
        let replays = sum (fun i -> Checkpoint.tail_replays c ~site:i) in
        (* Peak standing log depth over the sampled horizon, summed over
           sites: the quantity checkpointing bounds.  Compare with
           Folded, the cumulative entries absorbed into snapshots, which
           grows with the horizon. *)
        let series = obs.Obs.series in
        let log_cols =
          List.filter_map
            (fun i ->
              Series.column_index series
                (Printf.sprintf "res/log_entries.s%d" i))
            (List.init sites Fun.id)
        in
        let max_depth = ref 0.0 in
        Series.iter series (fun smp ->
            let v =
              List.fold_left
                (fun a col -> a +. smp.Series.values.(col))
                0.0 log_cols
            in
            if v > !max_depth then max_depth := v);
        let final_log = sum (fun i -> (res i).Intf.log_entries) in
        let folded = sum (fun i -> Checkpoint.truncated_log c ~site:i) in
        let off_match =
          List.for_all2
            (fun snap i -> snap = Store.snapshot (Harness.store h ~site:i))
            off (List.init sites Fun.id)
        in
        ( folded + final_log,
          [
            name;
            Tablefmt.cell_int !committed;
            Tablefmt.cell_int (sum (fun i -> Checkpoint.cuts c ~site:i));
            Tablefmt.cell_int folded;
            Tablefmt.cell_int
              (sum (fun i -> Checkpoint.truncated_journal c ~site:i));
            Tablefmt.cell_int (int_of_float !max_depth);
            Tablefmt.cell_int final_log;
            Tablefmt.cell_int (sum (fun i -> (res i).Intf.wal_high_water));
            Tablefmt.cell_int replays;
            Tablefmt.cell_int (maxi (fun i -> Checkpoint.max_tail c ~site:i));
            Tablefmt.cell_bool off_match;
            Tablefmt.cell_bool (settled && Harness.converged h);
          ] ))
      methods
  in
  let results = par_rows jobs in
  note_applied (List.fold_left (fun a (n, _) -> a + n) 0 results);
  add_rows t (List.map snd results);
  Tablefmt.print t

(* --- E19: audit certificates --------------------------------------- *)

(* Every method, over the same seeded nemesis schedule, in full and
   ring-sharded placement, with the runtime auditor tapped into the live
   event stream: all 14 runs must come back certified (zero violations),
   and the ledger columns show how tight the paper's epsilon bound is in
   practice — how many bounded queries actually hit their limit, and how
   much inconsistency was charged against reconstructed overlap. *)
let e19_audit_certificates () =
  let module Obs = Esr_obs.Obs in
  let module Audit = Esr_obs.Audit in
  let module Nemesis = Esr_fault.Nemesis in
  let module Schedule = Esr_fault.Schedule in
  let module Sharding = Esr_store.Sharding in
  let sites = 4 in
  let duration = 2_000.0 in
  let epsilon = 4 in
  let schedule =
    Nemesis.generate ~seed ~sites ~duration:(duration *. 0.8) ()
  in
  Printf.printf "e19 nemesis schedule (seed %d): %s\n" seed
    (Schedule.to_spec schedule);
  let t =
    Tablefmt.create
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
      ~headers:
        [ "Method"; "Placement"; "Events"; "Queries"; "AtBound"; "Charged";
          "Windows"; "Exact"; "MaxReplay"; "Violations"; "Certified" ]
  in
  let methods =
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
  in
  let jobs =
    List.concat_map
      (fun name ->
        List.map
          (fun placement () ->
            let spec =
              {
                Spec.duration;
                update_rate = 0.05;
                query_rate = 0.05;
                n_keys = 24;
                zipf_theta = 0.6;
                ops_per_update = (if name = "QUORUM" then 1 else 2);
                keys_per_query = 2;
                epsilon = Epsilon.Limit epsilon;
                profile =
                  (match name with
                  | "RITU" | "QUORUM" -> Spec.Blind_set
                  | _ -> Spec.Additive);
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
            let r =
              Scenario.run ~seed ?sharding ~obs ~audit ~faults:schedule ~sites
                ~method_name:name spec
            in
            ignore r;
            let report = Audit.finish audit in
            let s = report.Audit.summary in
            [
              name;
              placement_name;
              Tablefmt.cell_int s.Audit.s_events;
              Tablefmt.cell_int s.Audit.s_queries;
              Tablefmt.cell_int s.Audit.s_at_bound;
              Tablefmt.cell_int s.Audit.s_charged_total;
              Tablefmt.cell_int s.Audit.s_windows;
              Tablefmt.cell_int s.Audit.s_windows_exact;
              Tablefmt.cell_int s.Audit.s_max_replay;
              Tablefmt.cell_int (List.length report.Audit.violations);
              Tablefmt.cell_bool (Audit.ok report);
            ])
          [ `Full; `Ring ])
      methods
  in
  add_rows t (par_rows jobs);
  Tablefmt.print t

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
