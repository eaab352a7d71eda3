(* Tests for Esr_workload: the oracle and the scenario driver machinery. *)

module Value = Esr_store.Value
module Intf = Esr_replica.Intf
module Spec = Esr_workload.Spec
module Oracle = Esr_workload.Oracle
module Scenario = Esr_workload.Scenario
module Stats = Esr_util.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let value_t = Alcotest.testable Value.pp Value.equal

(* --- Oracle --- *)

let test_oracle_applies_intents () =
  let o = Oracle.create () in
  Oracle.apply o [ Intf.Add ("x", 3); Intf.Add ("x", 4) ];
  Alcotest.check value_t "sum" (Value.int 7) (Oracle.get o "x");
  Oracle.apply o [ Intf.Mul ("x", 2) ];
  Alcotest.check value_t "doubled" (Value.int 14) (Oracle.get o "x");
  Oracle.apply o [ Intf.Set ("x", Value.str "done") ];
  Alcotest.check value_t "overwritten" (Value.str "done") (Oracle.get o "x")

let test_oracle_missing_key_zero () =
  let o = Oracle.create () in
  Alcotest.check value_t "zero" Value.zero (Oracle.get o "absent")

let test_oracle_error_distance () =
  let o = Oracle.create () in
  Oracle.apply o [ Intf.Add ("x", 10); Intf.Add ("y", 5) ];
  checkf "distance" 7.0
    (Oracle.error o [ ("x", Value.int 5); ("y", Value.int 3) ]);
  checkf "exact" 0.0 (Oracle.error o [ ("x", Value.int 10); ("y", Value.int 5) ])

let test_oracle_error_mismatch () =
  let o = Oracle.create () in
  Oracle.apply o [ Intf.Set ("x", Value.int 100) ];
  checkf "mismatch is 1" 1.0
    (Oracle.error ~metric:`Mismatch o [ ("x", Value.int 99) ]);
  checkf "match is 0" 0.0
    (Oracle.error ~metric:`Mismatch o [ ("x", Value.int 100) ])

(* --- Spec --- *)

let test_spec_render () =
  let s = Format.asprintf "%a" Spec.pp Spec.default in
  checkb "nonempty" true (String.length s > 0)

(* --- Scenario determinism and bookkeeping --- *)

let small_spec =
  {
    Spec.default with
    Spec.duration = 600.0;
    update_rate = 0.03;
    query_rate = 0.03;
    n_keys = 8;
  }

let test_scenario_deterministic () =
  let r1 = Scenario.run ~seed:5 ~sites:3 ~method_name:"COMMU" small_spec in
  let r2 = Scenario.run ~seed:5 ~sites:3 ~method_name:"COMMU" small_spec in
  checki "same committed" r1.Scenario.committed r2.Scenario.committed;
  checki "same served" r1.Scenario.served r2.Scenario.served;
  checkf "same quiesce time" r1.Scenario.quiesce_time r2.Scenario.quiesce_time;
  checkf "same mean latency"
    (Stats.mean r1.Scenario.update_latency)
    (Stats.mean r2.Scenario.update_latency)

let test_scenario_seed_changes_run () =
  let r1 = Scenario.run ~seed:5 ~sites:3 ~method_name:"COMMU" small_spec in
  let r2 = Scenario.run ~seed:6 ~sites:3 ~method_name:"COMMU" small_spec in
  checkb "different runs" true
    (r1.Scenario.quiesce_time <> r2.Scenario.quiesce_time
    || Stats.mean r1.Scenario.update_latency
       <> Stats.mean r2.Scenario.update_latency)

let test_scenario_accounts_for_everything () =
  let r = Scenario.run ~seed:9 ~sites:4 ~method_name:"ORDUP" small_spec in
  checki "updates all resolved" r.Scenario.submitted_updates
    (r.Scenario.committed + r.Scenario.rejected);
  checki "queries all served" r.Scenario.submitted_queries r.Scenario.served;
  checkb "settled" true r.Scenario.settled;
  checkb "converged" true r.Scenario.converged

let test_scenario_throughput () =
  let r = Scenario.run ~seed:9 ~sites:3 ~method_name:"COMMU" small_spec in
  checkb "positive throughput" true (Scenario.throughput r > 0.0)

let test_scenario_window_counts () =
  let faults =
    Result.get_ok (Esr_fault.Schedule.of_spec "partition@200:0 1|2;heal@400")
  in
  let r =
    Scenario.run ~seed:3 ~sites:3 ~method_name:"COMMU" ~faults small_spec
  in
  match r.Scenario.window with
  | None -> Alcotest.fail "window expected"
  | Some w ->
      checkb "submissions happened in window" true (w.Scenario.w_updates_submitted > 0);
      checkb "async commits continue during partition" true
        (w.Scenario.w_updates_committed > 0);
      checkb "converged after heal" true r.Scenario.converged

let test_scenario_blind_profile_for_ritu () =
  let spec = { small_spec with Spec.profile = Spec.Blind_set } in
  let r = Scenario.run ~seed:11 ~sites:3 ~method_name:"RITU" spec in
  checki "nothing rejected" 0 r.Scenario.rejected;
  checkb "converged" true r.Scenario.converged

let test_scenario_profile_mismatch_rejects () =
  (* COMMU under a blind-set profile must reject every update ET. *)
  let spec = { small_spec with Spec.profile = Spec.Blind_set } in
  let r = Scenario.run ~seed:11 ~sites:3 ~method_name:"COMMU" spec in
  checki "all rejected" r.Scenario.submitted_updates r.Scenario.rejected;
  checki "none committed" 0 r.Scenario.committed

(* The rule in [Spec]: every method commits an update ET drawn from its
   own profile on a fresh harness, and the blind-write-only methods refuse
   an increment. *)
let submit_one name intents =
  let module Harness = Esr_replica.Harness in
  let h = Harness.create ~seed:5 ~sites:3 ~method_name:name () in
  let outcome = ref None in
  Harness.submit_update h ~origin:0 intents (fun o -> outcome := Some o);
  ignore (Harness.settle_result h);
  !outcome

let test_spec_method_rule () =
  List.iter
    (fun name ->
      let spec = Spec.for_method name Spec.default in
      let intents =
        List.init spec.Spec.ops_per_update (fun i ->
            Spec.intent spec.Spec.profile (Printf.sprintf "k%d" i) ~set:7 ~add:3)
      in
      match submit_one name intents with
      | Some (Intf.Committed _) -> ()
      | Some (Intf.Rejected why) -> Alcotest.failf "%s refused: %s" name why
      | None -> Alcotest.failf "%s: no outcome" name)
    Esr_replica.Registry.names;
  List.iter
    (fun name ->
      checkb (name ^ " refuses an Add") true
        (match submit_one name [ Intf.Add ("k0", 1) ] with
        | Some (Intf.Rejected _) -> true
        | Some (Intf.Committed _) | None -> false))
    [ "RITU"; "QUORUM" ];
  checkb "case-insensitive" true
    (Spec.for_method "quorum" Spec.default
    = { Spec.default with Spec.ops_per_update = 1; profile = Spec.Blind_set })

let () =
  Alcotest.run "esr_workload"
    [
      ( "oracle",
        [
          Alcotest.test_case "applies intents" `Quick test_oracle_applies_intents;
          Alcotest.test_case "missing key" `Quick test_oracle_missing_key_zero;
          Alcotest.test_case "distance error" `Quick test_oracle_error_distance;
          Alcotest.test_case "mismatch error" `Quick test_oracle_error_mismatch;
        ] );
      ( "spec",
        [
          Alcotest.test_case "render" `Quick test_spec_render;
          Alcotest.test_case "method rule" `Quick test_spec_method_rule;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_scenario_seed_changes_run;
          Alcotest.test_case "full accounting" `Quick
            test_scenario_accounts_for_everything;
          Alcotest.test_case "throughput" `Quick test_scenario_throughput;
          Alcotest.test_case "partition window counts" `Quick
            test_scenario_window_counts;
          Alcotest.test_case "blind profile for RITU" `Quick
            test_scenario_blind_profile_for_ritu;
          Alcotest.test_case "profile mismatch rejects" `Quick
            test_scenario_profile_mismatch_rejects;
        ] );
    ]
