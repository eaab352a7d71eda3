(* Tests for the divergence observatory: the windowed series sampler,
   its dump round-trips, the invariant that sampling is observationally
   invisible (a run with the series armed produces the same simulated
   outcomes as one without), and causal span reconstruction — every
   committed update must map to exactly one span tree. *)

module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace
module Series = Esr_obs.Series
module Spans = Esr_obs.Spans
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Epsilon = Esr_core.Epsilon

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* --- sampler mechanics --- *)

let test_disabled_is_inert () =
  let s = Series.make ~enabled:false () in
  checkb "off" false (Series.on s);
  Series.probe s ~name:"x" (fun () -> 1.0);
  Series.sample s ~time:10.0;
  Series.annotate s ~time:10.0 "noop";
  checki "no samples" 0 (Series.length s);
  checki "no annotations" 0 (List.length (Series.annotations s))

let test_columns_freeze_at_first_sample () =
  let s = Series.make ~enabled:true () in
  let v = ref 1.0 in
  Series.probe s ~name:"a" (fun () -> !v);
  Series.probe s ~name:"b" (fun () -> 2.0 *. !v);
  Series.sample s ~time:0.0;
  Alcotest.(check (list string)) "columns" [ "a"; "b" ] (Series.columns s);
  (* registering after the first sample must be rejected, not silently
     skew every later row *)
  (try
     Series.probe s ~name:"late" (fun () -> 0.0);
     Alcotest.fail "late probe accepted"
   with Invalid_argument _ -> ());
  v := 5.0;
  Series.sample s ~time:50.0;
  (match Series.to_list s with
  | [ s0; s1 ] ->
      checkf "t0" 0.0 s0.Series.at;
      checkf "a@t0" 1.0 s0.Series.values.(0);
      checkf "b@t1" 10.0 s1.Series.values.(1)
  | _ -> Alcotest.fail "expected two samples");
  checki "column_index" 1 (Option.get (Series.column_index s "b"))

let test_ring_bounds_memory () =
  let s = Series.make ~enabled:true ~capacity:4 () in
  Series.probe s ~name:"t2" (fun () -> 0.0);
  for i = 0 to 9 do
    Series.sample s ~time:(float_of_int i)
  done;
  checki "capacity bound" 4 (Series.length s);
  checki "dropped counted" 6 (Series.dropped s);
  match Series.to_list s with
  | oldest :: _ -> checkf "oldest surviving" 6.0 oldest.Series.at
  | [] -> Alcotest.fail "empty"

let test_dump_round_trip () =
  let s = Series.make ~enabled:true ~interval:25.0 () in
  Series.probe s ~name:"esr/spread_max" (fun () -> 3.5);
  Series.probe s ~name:"net/sent" (fun () -> 7.0);
  Series.sample s ~time:0.0;
  Series.sample s ~time:25.0;
  Series.annotate s ~time:10.0 "crash:1";
  let path = Filename.temp_file "esr_series" ".json" in
  let oc = open_out path in
  Series.write_json oc (Series.dump s);
  close_out oc;
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Series.dump_of_json body with
  | Error e -> Alcotest.failf "dump unparseable: %s" e
  | Ok d ->
      checkf "interval" 25.0 d.Series.d_interval;
      Alcotest.(check (array string))
        "columns" [| "esr/spread_max"; "net/sent" |] d.Series.d_columns;
      checki "samples" 2 (List.length d.Series.d_samples);
      (match d.Series.d_annotations with
      | [ a ] ->
          checkf "annotation ts" 10.0 a.Series.at;
          checks "annotation label" "crash:1" a.Series.label
      | _ -> Alcotest.fail "expected one annotation");
      checki "dump_column" 1 (Option.get (Series.dump_column d "net/sent"));
      match d.Series.d_samples with
      | { Series.at = 0.0; values } :: _ -> checkf "value" 3.5 values.(0)
      | _ -> Alcotest.fail "first sample wrong"

(* A series reader takes nothing it cannot represent: a non-number cell
   or a malformed annotation fails the whole dump, naming the field. *)
let test_dump_rejects_malformed () =
  let doc ~samples ~annotations =
    Printf.sprintf
      {|{"schema":"esr-series/1","interval":50,"dropped":0,"columns":["time","a"],
"samples":%s,
"annotations":%s}|}
      samples annotations
  in
  (match Series.dump_of_json (doc ~samples:"[[0,1],\n[50,2]]" ~annotations:"[]") with
  | Ok d -> checki "good dump reads" 2 (List.length d.Series.d_samples)
  | Error m -> Alcotest.failf "good dump rejected: %s" m);
  List.iter
    (fun (samples, annotations) ->
      match Series.dump_of_json (doc ~samples ~annotations) with
      | Ok _ -> Alcotest.failf "accepted samples %s annotations %s" samples annotations
      | Error _ -> ())
    [
      ({|[[0,"1"]]|}, "[]");
      ("[[0,1,2]]", "[]");
      ("[[0]]", "[]");
      ("[[0,1]]", {|[{"ts":1}]|});
      ("[[0,1]]", {|[{"ts":"x","label":"crash"}]|});
      ("[[0,1]]", {|[{"ts":1,"label":"\uZZZZ"}]|});
    ]

(* --- sampling is observationally invisible --- *)

let small_spec =
  {
    Spec.default with
    Spec.duration = 500.0;
    update_rate = 0.04;
    query_rate = 0.04;
    n_keys = 8;
    epsilon = Epsilon.Limit 4;
  }

(* Simulated outcomes only: the sampler legitimately extends virtual
   time to its last armed tick, so quiesce_time is excluded — everything
   the workload observed (counts, latencies, charged units, method
   stats, per-link message fates) must be bit-identical. *)
let fingerprint (r : Scenario.result) =
  Format.asprintf "%a | stats=%a | net=%d/%d/%d/%d"
    Scenario.pp_summary r
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%g" k v))
    r.Scenario.method_stats r.Scenario.net_counters.Esr_sim.Net.sent
    r.Scenario.net_counters.Esr_sim.Net.delivered
    r.Scenario.net_counters.Esr_sim.Net.lost
    r.Scenario.net_counters.Esr_sim.Net.blocked

let run_with ~series ~seed ~method_name =
  let obs = Obs.create ~series () in
  let r = Scenario.run ~obs ~seed ~sites:3 ~method_name small_spec in
  (fingerprint r, obs)

let test_series_identical_outcomes () =
  List.iter
    (fun method_name ->
      let off, _ = run_with ~series:false ~seed:17 ~method_name in
      let on, obs = run_with ~series:true ~seed:17 ~method_name in
      checks (method_name ^ " outcomes identical") off on;
      checkb
        (method_name ^ " series populated")
        true
        (Series.length obs.Obs.series > 0))
    methods

let prop_series_invisible =
  QCheck.Test.make ~count:20 ~name:"series on/off: identical run fingerprint"
    QCheck.(pair (int_range 1 1000) (int_range 0 6))
    (fun (seed, mi) ->
      let method_name = List.nth methods mi in
      let off, _ = run_with ~series:false ~seed ~method_name in
      let on, _ = run_with ~series:true ~seed ~method_name in
      String.equal off on)

let test_derived_columns_present () =
  let _, obs = run_with ~series:true ~seed:17 ~method_name:"ORDUP" in
  let s = obs.Obs.series in
  List.iter
    (fun col ->
      checkb (col ^ " registered") true (Series.column_index s col <> None))
    [
      "esr/spread_max"; "esr/spread_mean"; "esr/divergent_keys"; "esr/backlog";
      "esr/eps_consumed"; "esr/eps_limit"; "esr/conv_lag"; "esr/sites_down";
      "esr/method_backlog"; "esr/oracle_max"; "esr/oracle_mean";
    ];
  (* at quiescence every replica is equal: the settle-time sample must
     show zero spread and zero lag *)
  let last = List.nth (Series.to_list s) (Series.length s - 1) in
  let v name = last.Series.values.(Option.get (Series.column_index s name)) in
  checkf "spread 0 at quiescence" 0.0 (v "esr/spread_max");
  checkf "conv_lag 0 at quiescence" 0.0 (v "esr/conv_lag");
  checkf "backlog 0 at quiescence" 0.0 (v "esr/method_backlog")

(* --- span reconstruction --- *)

let traced ~method_name =
  let obs = Obs.create ~tracing:true () in
  let records = Tap.collect obs.Obs.trace in
  let r = Scenario.run ~obs ~seed:17 ~sites:3 ~method_name small_spec in
  (r, Spans.reconstruct (records ()))

(* The ISSUE's accounting invariant: every Update_committed in the trace
   maps to exactly one reconstructed span tree — no lost, duplicated, or
   synthesized commits — for all seven methods. *)
let test_span_accounting_all_methods () =
  List.iter
    (fun method_name ->
      let r, t = traced ~method_name in
      checkb (method_name ^ " spans complete") true (Spans.complete t);
      checki
        (method_name ^ " one tree per committed update")
        r.Scenario.committed (Spans.n_committed t);
      checki
        (method_name ^ " one tree per submission")
        r.Scenario.submitted_updates
        (List.length t.Spans.spans))
    methods

let test_breakdown_partitions_latency () =
  let _, t = traced ~method_name:"ORDUP" in
  let n = ref 0 in
  List.iter
    (fun sp ->
      match sp.Spans.s_outcome with
      | Spans.Committed at ->
          incr n;
          let latency = at -. sp.Spans.s_began in
          let b = Spans.span_breakdown sp in
          checkb "queued >= 0" true (b.Spans.b_queued >= 0.0);
          checkb "in_flight >= 0" true (b.Spans.b_in_flight >= 0.0);
          checkb "blocked >= 0" true (b.Spans.b_blocked >= 0.0);
          Alcotest.check (Alcotest.float 1e-6) "parts sum to latency" latency
            (b.Spans.b_queued +. b.Spans.b_in_flight +. b.Spans.b_blocked)
      | _ -> ())
    t.Spans.spans;
  checkb "saw committed spans" true (!n > 0);
  let count, mean = Spans.aggregate t in
  checki "aggregate count" !n count;
  checkb "aggregate means finite" true
    (Float.is_finite mean.Spans.b_queued
    && Float.is_finite mean.Spans.b_in_flight
    && Float.is_finite mean.Spans.b_blocked)

let () =
  Alcotest.run "esr_series"
    [
      ( "sampler",
        [
          Alcotest.test_case "disabled sink is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "columns freeze at first sample" `Quick
            test_columns_freeze_at_first_sample;
          Alcotest.test_case "ring bounds memory" `Quick test_ring_bounds_memory;
          Alcotest.test_case "dump round-trips" `Quick test_dump_round_trip;
          Alcotest.test_case "dump reader rejects malformed rows" `Quick
            test_dump_rejects_malformed;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "series on/off identical (7 methods)" `Quick
            test_series_identical_outcomes;
          QCheck_alcotest.to_alcotest prop_series_invisible;
          Alcotest.test_case "derived columns present + quiescent zeros" `Quick
            test_derived_columns_present;
        ] );
      ( "spans",
        [
          Alcotest.test_case "every commit maps to one span tree (7 methods)"
            `Quick test_span_accounting_all_methods;
          Alcotest.test_case "critical path partitions latency" `Quick
            test_breakdown_partitions_latency;
        ] );
    ]
