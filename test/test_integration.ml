(* Whole-system integration tests: every method driven by adversarial
   workloads (lossy, duplicating, reordering networks; partitions), then
   checked against the paper's guarantees — convergence at quiescence,
   ε-serial per-site histories, epsilon bounds, availability shapes. *)

module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Stats = Esr_util.Stats
module Store = Esr_store.Store
module Epsilon = Esr_core.Epsilon
module Conflict = Esr_core.Conflict
module Esr_check = Esr_core.Esr_check
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Drain the system; a run that cannot drain fails with the reason. *)
let expect_drained h =
  match Harness.settle_result h with
  | Harness.Drained -> ()
  | Harness.Stuck r -> Alcotest.fail ("stuck: " ^ Harness.stuck_reason_to_string r)

let chaos_net =
  {
    Net.latency = Dist.Uniform (2.0, 120.0);
    drop_probability = 0.08;
    duplicate_probability = 0.05;
  }

let spec_for name =
  Spec.for_method name
    {
      Spec.default with
      Spec.duration = 1_500.0;
      update_rate = 0.04;
      query_rate = 0.04;
      n_keys = 12;
      epsilon = Epsilon.Unlimited;
    }

(* --- E3-style convergence: every method, hostile network --- *)

let convergence_case name () =
  let r =
    Scenario.run ~seed:101 ~net_config:chaos_net ~sites:4 ~method_name:name
      (spec_for name)
  in
  checkb "settled" true r.Scenario.settled;
  checkb "converged at quiescence" true r.Scenario.converged;
  checkb "committed work" true (r.Scenario.committed > 0);
  checki "all queries served" r.Scenario.submitted_queries r.Scenario.served

let convergence_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " converges under chaos") `Slow
        (convergence_case name))
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* Convergence additionally means: final state equals the serial
   application of exactly the committed updates (checked for the additive
   profile, where the committed sum is order-independent). *)
let test_convergence_matches_committed_effects () =
  List.iter
    (fun name ->
      let r =
        Scenario.run ~seed:77 ~net_config:chaos_net ~sites:3 ~method_name:name
          (spec_for name)
      in
      checkb (name ^ " value error zero at quiescence") true r.Scenario.converged)
    [ "ORDUP"; "COMMU"; "COMPE" ]

(* --- per-site histories are ε-serial (ESR checker in the loop) --- *)

let history_case ~mode name () =
  let h =
    Harness.create ~net_config:chaos_net ~seed:303 ~sites:3 ~method_name:name ()
  in
  let prng = Esr_util.Prng.create 909 in
  for i = 0 to 39 do
    let origin = i mod 3 in
    let key = Printf.sprintf "k%d" (Esr_util.Prng.int prng 4) in
    (match name with
    | "RITU" ->
        Harness.submit_update h ~origin
          [ Intf.Set (key, Esr_store.Value.int i) ]
          ignore
    | _ -> Harness.submit_update h ~origin [ Intf.Add (key, 1) ] ignore);
    if i mod 2 = 0 then
      Harness.submit_query h ~site:((i + 1) mod 3) ~keys:[ key; "k0" ]
        ~epsilon:(Epsilon.Limit 3) ignore
  done;
  expect_drained h;
  for s = 0 to 2 do
    checkb
      (Printf.sprintf "%s site %d ε-serial" name s)
      true
      (Esr_check.is_epsilon_serial ~mode (Harness.history h ~site:s))
  done

let history_tests =
  [
    Alcotest.test_case "ORDUP histories ε-serial (classic)" `Slow
      (history_case ~mode:Conflict.Classic "ORDUP");
    Alcotest.test_case "COMMU histories ε-serial (semantic)" `Slow
      (history_case ~mode:Conflict.Semantic "COMMU");
    Alcotest.test_case "RITU histories ε-serial (semantic)" `Slow
      (history_case ~mode:Conflict.Semantic "RITU");
    Alcotest.test_case "2PC histories ε-serial (classic)" `Slow
      (history_case ~mode:Conflict.Classic "2PC");
  ]

(* --- epsilon bounds hold under load (E2 shape) --- *)

let test_epsilon_bound_holds_per_query () =
  List.iter
    (fun (name, eps) ->
      let spec =
        { (spec_for name) with Spec.epsilon = Epsilon.Limit eps; query_rate = 0.08 }
      in
      let r =
        Scenario.run ~seed:505 ~net_config:chaos_net ~sites:4 ~method_name:name spec
      in
      let worst =
        if Stats.count r.Scenario.charged = 0 then 0.0 else Stats.max r.Scenario.charged
      in
      checkb
        (Printf.sprintf "%s: max charged %.0f <= eps %d" name worst eps)
        true
        (worst <= float_of_int eps))
    [ ("ORDUP", 2); ("COMMU", 3); ("RITU", 1) ]

let test_epsilon_zero_gives_zero_error_ordup () =
  (* ε=0 ORDUP queries always take the consistent path: exact answers. *)
  let spec =
    { (spec_for "ORDUP") with Spec.epsilon = Epsilon.Limit 0; query_rate = 0.06 }
  in
  let r = Scenario.run ~seed:606 ~sites:4 ~method_name:"ORDUP" spec in
  checkb "all served" true (r.Scenario.served = r.Scenario.submitted_queries);
  let worst = if Stats.count r.Scenario.charged = 0 then 0.0 else Stats.max r.Scenario.charged in
  Alcotest.check (Alcotest.float 1e-9) "zero units" 0.0 worst

let test_epsilon_tradeoff_latency () =
  (* Smaller ε must not make queries faster (they wait more). *)
  let lat eps =
    let spec =
      { (spec_for "ORDUP") with Spec.epsilon = eps; query_rate = 0.06; update_rate = 0.08 }
    in
    let r =
      Scenario.run ~seed:707 ~net_config:chaos_net ~sites:4 ~method_name:"ORDUP" spec
    in
    Stats.mean r.Scenario.query_latency
  in
  let strict = lat (Epsilon.Limit 0) in
  let loose = lat Epsilon.Unlimited in
  checkb
    (Printf.sprintf "strict (%.2f) >= loose (%.2f)" strict loose)
    true (strict >= loose)

(* --- partition availability (E4 shape) --- *)

let test_partition_async_stays_available_sync_stalls () =
  let faults =
    Result.get_ok (Esr_fault.Schedule.of_spec "partition@300:0 1|2 3;heal@900")
  in
  let run name =
    let spec =
      { (spec_for name) with Spec.duration = 1_200.0; update_rate = 0.05 }
    in
    let config = { Intf.default_config with twopc_timeout = 10_000.0 } in
    Scenario.run ~seed:808 ~config ~sites:4 ~method_name:name ~faults spec
  in
  let commu = run "COMMU" in
  let twopc = run "2PC" in
  let window r =
    match r.Scenario.window with Some w -> w | None -> Alcotest.fail "window"
  in
  let wc = window commu and wt = window twopc in
  checkb "COMMU commits during partition" true (wc.Scenario.w_updates_committed > 0);
  checki "2PC commits nothing during partition" 0 wt.Scenario.w_updates_committed;
  checkb "COMMU converges after heal" true commu.Scenario.converged;
  checkb "2PC converges after heal" true twopc.Scenario.converged

let test_partition_quorum_minority_blocked () =
  (* 1-vs-4 split: the majority side keeps committing, the minority site's
     updates stall until heal. *)
  let faults =
    Result.get_ok (Esr_fault.Schedule.of_spec "partition@200:0|1 2 3 4;heal@800")
  in
  let spec =
    { (spec_for "QUORUM") with Spec.duration = 1_000.0; update_rate = 0.05 }
  in
  let r = Scenario.run ~seed:909 ~sites:5 ~method_name:"QUORUM" ~faults spec in
  checkb "settled after heal" true r.Scenario.settled;
  checkb "converged" true r.Scenario.converged;
  let w = match r.Scenario.window with Some w -> w | None -> Alcotest.fail "w" in
  checkb "majority side kept committing" true (w.Scenario.w_updates_committed > 0);
  checkb "but not everything submitted" true
    (w.Scenario.w_updates_committed < w.Scenario.w_updates_submitted)

(* --- site crash and recovery --- *)

(* The stable queues journal unacknowledged MSets, so a site that crashes
   mid-propagation catches up after recovery and the system still
   converges (the paper's §2.2 robustness "in face of … site failures"). *)
let crash_recovery_case name () =
  let h =
    Harness.create ~seed:404 ~sites:4 ~method_name:name
      ~config:{ Intf.default_config with Intf.twopc_timeout = 30_000.0 }
      ()
  in
  let engine = Harness.engine h in
  let net = Harness.net h in
  let committed = ref 0 in
  let prng = Esr_util.Prng.create 8 in
  for i = 0 to 39 do
    ignore
      (Esr_sim.Engine.schedule_at engine
         ~time:(float_of_int i *. 50.0)
         (fun () ->
           (* Crashed sites cannot originate work; pick a live one. *)
           let origin =
             let candidate = Esr_util.Prng.int prng 4 in
             if Net.site_up net candidate then candidate else 0
           in
           let intents =
             match name with
             | "RITU" | "QUORUM" -> [ Intf.Set ("k", Esr_store.Value.int i) ]
             | _ -> [ Intf.Add ("k", 1) ]
           in
           Harness.submit_update h ~origin intents (function
             | Intf.Committed _ -> incr committed
             | Intf.Rejected _ -> ())))
  done;
  ignore (Esr_sim.Engine.schedule_at engine ~time:500.0 (fun () -> Net.crash net 2));
  ignore (Esr_sim.Engine.schedule_at engine ~time:1_500.0 (fun () -> Net.recover net 2));
  expect_drained h;
  checkb "committed through the crash" true (!committed > 0);
  checkb "converged including the recovered site" true (Harness.converged h)

let crash_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " survives site crash") `Slow
        (crash_recovery_case name))
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* --- determinism across the whole stack --- *)

let test_full_stack_determinism () =
  List.iter
    (fun name ->
      let spec = spec_for name in
      let a = Scenario.run ~seed:42 ~net_config:chaos_net ~sites:4 ~method_name:name spec in
      let b = Scenario.run ~seed:42 ~net_config:chaos_net ~sites:4 ~method_name:name spec in
      checki (name ^ " committed") a.Scenario.committed b.Scenario.committed;
      Alcotest.check (Alcotest.float 0.0) (name ^ " quiesce")
        a.Scenario.quiesce_time b.Scenario.quiesce_time;
      Alcotest.check (Alcotest.float 0.0)
        (name ^ " mean query latency")
        (Stats.mean a.Scenario.query_latency)
        (Stats.mean b.Scenario.query_latency))
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* --- whole-stack fuzz: random parameters, the guarantees must hold --- *)

let prop_fuzz_convergence =
  QCheck.Test.make ~name:"random scenarios settle, converge, respect epsilon"
    ~count:25
    QCheck.(
      quad (int_range 1 100_000) (int_range 2 6) (int_range 0 3)
        (pair (int_range 0 5) bool))
    (fun (seed, sites, method_idx, (eps, lossy)) ->
      let name = List.nth [ "ORDUP"; "COMMU"; "RITU"; "COMPE" ] method_idx in
      let net_config =
        if lossy then chaos_net
        else { Net.default_config with Net.latency = Dist.Uniform (1.0, 60.0) }
      in
      let spec =
        {
          (spec_for name) with
          Spec.duration = 800.0;
          update_rate = 0.05;
          query_rate = 0.05;
          n_keys = 6;
          epsilon = Epsilon.Limit eps;
        }
      in
      let r = Scenario.run ~seed ~net_config ~sites ~method_name:name spec in
      let worst =
        if Stats.count r.Scenario.charged = 0 then 0.0
        else Stats.max r.Scenario.charged
      in
      r.Scenario.settled && r.Scenario.converged
      && r.Scenario.served = r.Scenario.submitted_queries
      && worst <= float_of_int eps)

(* --- cross-method equivalence: all additive methods agree on final state --- *)

let test_additive_methods_agree_when_nothing_aborts () =
  (* Same submission schedule, no failures: ORDUP, COMMU, COMPE(p=0) and
     2PC must all end in the same replicated state. *)
  let final name =
    let h = Harness.create ~seed:11 ~sites:3 ~method_name:name () in
    for i = 1 to 12 do
      Harness.submit_update h ~origin:(i mod 3)
        [ Intf.Add ("x", i); Intf.Add ("y", 2 * i) ]
        ignore
    done;
    expect_drained h;
    (Store.get (Harness.store h ~site:0) "x", Store.get (Harness.store h ~site:0) "y")
  in
  let expected = final "ORDUP" in
  List.iter
    (fun name ->
      let got = final name in
      checkb (name ^ " same x") true (fst got = fst expected);
      checkb (name ^ " same y") true (snd got = snd expected))
    [ "COMMU"; "COMPE"; "2PC" ]

(* --- integrity constraints (the §2.1 consistency statement) --- *)

(* Update ETs preserve consistency: multi-key transfer ETs keep
   sum(x, y) = 0 invariant.  Strict queries must always see the invariant
   hold mid-run; at quiescence every replica satisfies it exactly. *)
let invariant_case name () =
  let h =
    Harness.create ~net_config:chaos_net ~seed:606 ~sites:4 ~method_name:name
      ~config:{ Intf.default_config with Intf.twopc_timeout = 30_000.0 }
      ()
  in
  let engine = Harness.engine h in
  let prng = Esr_util.Prng.create 33 in
  for i = 0 to 59 do
    ignore
      (Esr_sim.Engine.schedule_at engine
         ~time:(float_of_int i *. 40.0)
         (fun () ->
           let d = 1 + Esr_util.Prng.int prng 20 in
           Harness.submit_update h
             ~origin:(Esr_util.Prng.int prng 4)
             [ Intf.Add ("x", d); Intf.Add ("y", -d) ]
             ignore))
  done;
  let strict_violations = ref 0 and strict_served = ref 0 in
  for i = 1 to 8 do
    ignore
      (Esr_sim.Engine.schedule_at engine
         ~time:(float_of_int i *. 300.0)
         (fun () ->
           Harness.submit_query h
             ~site:(Esr_util.Prng.int prng 4)
             ~keys:[ "x"; "y" ] ~epsilon:(Epsilon.Limit 0) (fun o ->
               incr strict_served;
               let get k =
                 Option.value
                   (Esr_store.Value.as_int (List.assoc k o.Intf.values))
                   ~default:0
               in
               if get "x" + get "y" <> 0 then incr strict_violations)))
  done;
  expect_drained h;
  checki "all strict audits served" 8 !strict_served;
  checki (name ^ ": strict audits never see a broken invariant") 0
    !strict_violations;
  for site = 0 to 3 do
    let store = Harness.store h ~site in
    let get k =
      Option.value (Esr_store.Value.as_int (Store.get store k)) ~default:0
    in
    checki (Printf.sprintf "%s site %d invariant at quiescence" name site) 0
      (get "x" + get "y")
  done

let invariant_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " preserves integrity constraints") `Slow
        (invariant_case name))
    [ "ORDUP"; "COMMU"; "COMPE"; "2PC" ]

(* --- soak: larger scale, longer run --- *)

let test_soak_large_system () =
  List.iter
    (fun name ->
      let spec =
        {
          (spec_for name) with
          Spec.duration = 20_000.0;
          update_rate = 0.2;
          query_rate = 0.1;
          n_keys = 64;
        }
      in
      let r =
        Scenario.run ~seed:1234 ~net_config:chaos_net ~sites:12 ~method_name:name
          spec
      in
      checkb (name ^ " settled") true r.Scenario.settled;
      checkb (name ^ " converged") true r.Scenario.converged;
      checkb
        (Printf.sprintf "%s committed %d of %d" name r.Scenario.committed
           r.Scenario.submitted_updates)
        true
        (r.Scenario.committed = r.Scenario.submitted_updates);
      checki (name ^ " all queries served") r.Scenario.submitted_queries
        r.Scenario.served)
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE" ]

(* --- flush_every drives mid-run progress for decentralized ordering --- *)

let test_flush_every_improves_lamport_latency () =
  let config = { Intf.default_config with Intf.ordup_ordering = `Lamport } in
  let spec =
    { (spec_for "ORDUP") with Spec.duration = 2_000.0; update_rate = 0.03 }
  in
  let slow = Scenario.run ~seed:5 ~config ~sites:4 ~method_name:"ORDUP" spec in
  let fast =
    Scenario.run ~seed:5 ~config ~sites:4 ~method_name:"ORDUP"
      ~flush_every:50.0 spec
  in
  checkb "both converge" true (slow.Scenario.converged && fast.Scenario.converged);
  checkb
    (Printf.sprintf "heartbeats cut commit latency (%.1f -> %.1f)"
       (Stats.mean slow.Scenario.update_latency)
       (Stats.mean fast.Scenario.update_latency))
    true
    (Stats.mean fast.Scenario.update_latency
    < Stats.mean slow.Scenario.update_latency)

let () =
  Alcotest.run "integration"
    [
      ("convergence", convergence_tests);
      ( "convergence effects",
        [
          Alcotest.test_case "matches committed effects" `Slow
            test_convergence_matches_committed_effects;
        ] );
      ("histories", history_tests);
      ( "epsilon",
        [
          Alcotest.test_case "bound holds per query" `Slow
            test_epsilon_bound_holds_per_query;
          Alcotest.test_case "ε=0 gives zero units" `Slow
            test_epsilon_zero_gives_zero_error_ordup;
          Alcotest.test_case "latency tradeoff" `Slow test_epsilon_tradeoff_latency;
        ] );
      ( "partition",
        [
          Alcotest.test_case "async available, sync stalls" `Slow
            test_partition_async_stays_available_sync_stalls;
          Alcotest.test_case "quorum minority blocked" `Slow
            test_partition_quorum_minority_blocked;
        ] );
      ("crash recovery", crash_tests);
      ( "determinism",
        [ Alcotest.test_case "full stack deterministic" `Slow test_full_stack_determinism ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_fuzz_convergence ]);
      ("integrity", invariant_tests);
      ( "soak",
        [
          Alcotest.test_case "12 sites, 4000 updates, chaos" `Slow
            test_soak_large_system;
          Alcotest.test_case "flush_every heartbeats" `Slow
            test_flush_every_improves_lamport_latency;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "additive methods agree" `Slow
            test_additive_methods_agree_when_nothing_aborts;
        ] );
    ]
