(* Tests for Esr_obs: trace sink taps, JSONL round-trip, metrics
   registry, and the cross-cutting invariant that tracing is purely
   observational — enabling it must not change a single simulated
   outcome. *)

module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace
module Metrics = Esr_obs.Metrics
module Openmetrics = Esr_obs.Openmetrics
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Epsilon = Esr_core.Epsilon
module Stats = Esr_util.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

(* --- trace sink --- *)

let ev_at i = Trace.Flush_round { round = i }

let test_trace_disabled_is_inert () =
  let t = Trace.make ~enabled:false () in
  checkb "off" false (Trace.on t);
  Trace.emit t ~time:1.0 (ev_at 0);
  match Trace.attach t ignore with
  | () -> Alcotest.fail "a disabled sink took a tap"
  | exception Invalid_argument _ -> ()

(* --- JSONL round-trip --- *)

(* One representative record per constructor: the round-trip must cover
   the whole vocabulary, including option/variant payloads. *)
let vocabulary : Trace.record list =
  let r time ev = { Trace.time; ev } in
  [
    r 0.5 (Trace.Msg_sent { src = 0; dst = 2; cls = "data" });
    r 1.0
      (Trace.Msg_dropped { src = 1; dst = 0; cls = "ack"; reason = Trace.Loss });
    r 1.5
      (Trace.Msg_dropped
         { src = 1; dst = 0; cls = "msg"; reason = Trace.Partition });
    r 2.0
      (Trace.Msg_dropped
         { src = 2; dst = 1; cls = "msg"; reason = Trace.Crashed_src });
    r 2.5
      (Trace.Msg_dropped
         { src = 2; dst = 1; cls = "msg"; reason = Trace.Crashed_dst });
    r 3.0 (Trace.Msg_duplicated { src = 0; dst = 1; cls = "data" });
    r 3.5 (Trace.Msg_delivered { src = 0; dst = 1; cls = "data" });
    r 4.0 (Trace.Partition_event { groups = [ [ 0; 1 ]; [ 2 ] ] });
    r 4.5 Trace.Heal;
    r 5.0 (Trace.Crash { site = 2 });
    r 5.5 (Trace.Recover { site = 2 });
    r 6.0 (Trace.Update_begin { u = 7; origin = 1; n_ops = 3 });
    r 6.5 (Trace.Update_committed { u = 7; origin = 1; latency = 41.25 });
    r 7.0 (Trace.Update_rejected { u = 8; origin = 0; reason = "conflict" });
    r 7.5 (Trace.Query_begin { q = 3; site = 2; n_keys = 2; epsilon = Some 5 });
    r 7.75 (Trace.Query_begin { q = 4; site = 0; n_keys = 1; epsilon = None });
    r 8.0
      (Trace.Query_served
         {
           q = 3;
           site = 2;
           charged = 2;
           forced = 0;
           epsilon = Some 5;
           consistent_path = false;
           latency = 12.5;
         });
    r 8.5
      (Trace.Query_served
         {
           q = 4;
           site = 0;
           charged = 0;
           forced = 0;
           epsilon = None;
           consistent_path = true;
           latency = 99.0;
         });
    r 9.0
      (Trace.Mset_enqueued
         { et = 7; origin = 1; n_ops = 3; keys = [ "k0"; "k1"; "k2" ] });
    r 9.25 (Trace.Mset_enqueued { et = 9; origin = 0; n_ops = 1; keys = [] });
    r 9.5 (Trace.Mset_applied { et = 7; site = 2; n_ops = 3; order = Some 4 });
    r 9.75 (Trace.Mset_applied { et = 9; site = 0; n_ops = 1; order = None });
    r 9.8 (Trace.Squeue_send { src = 0; dst = 2; seq = 17 });
    r 9.85 (Trace.Squeue_delivered { src = 0; dst = 2; seq = 17 });
    r 9.9 (Trace.Squeue_dup { src = 0; dst = 2; seq = 17 });
    r 9.92
      (Trace.Query_window
         { w = 3; site = 2; point = 5; missing = 1; keys = [ "a"; "b" ] });
    r 9.94 (Trace.Query_window_closed { w = 3; site = 2; charged = 2; outcome = `Ok });
    r 9.96
      (Trace.Query_window_closed { w = 4; site = 1; charged = 1; outcome = `Fallback });
    r 9.98
      (Trace.Query_window_closed { w = 5; site = 0; charged = 0; outcome = `Killed });
    r 10.0 (Trace.Compensation_fired { et = 7; site = 1; kind = `Fast });
    r 10.5 (Trace.Compensation_fired { et = 7; site = 1; kind = `Full });
    r 11.0 (Trace.Compensation_fired { et = 7; site = 1; kind = `Revoke });
    r 11.5 (Trace.Flush_round { round = 4 });
    r 12.0 (Trace.Converged { ok = true });
  ]

let test_jsonl_round_trip () =
  List.iter
    (fun r ->
      let line = Trace.record_to_json r in
      match Trace.record_of_json line with
      | Error e -> Alcotest.failf "parse failed on %s: %s" line e
      | Ok r' ->
          checkb (Printf.sprintf "round-trip %s" line) true (r = r'))
    vocabulary

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      match Trace.record_of_json line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage: %s" line)
    [
      "";
      "{}";
      "not json";
      {|{"ts":1.0}|};
      {|{"ts":1.0,"type":"nope"}|};
      {|{"ts":1.0,"type":"crash","site":1.5}|};
      {|{"ts":1.0,"type":"crash","site":1e300}|};
      {|{"ts":1.0,"type":"update_rejected","u":1,"origin":0,"reason":"\uZZZZ"}|};
      {|{"ts":1.0,"type":"msg_dropped","src":0,"dst":1,"cls":"m","reason":"eaten"}|};
      {|{"ts":1.0,"type":"partition","groups":[[0,1],[2.5]]}|};
    ]

(* An enabled sink with no tap builds no record: emitting a prebuilt
   event allocates nothing. *)
let test_emit_allocation () =
  let t = Trace.make ~enabled:true () in
  let sent = Trace.Msg_sent { src = 3; dst = 1; cls = "data" } in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Trace.emit t ~time:1.5 sent
  done;
  checkf "minor words over 100,000 emits" 0.0 (Gc.minor_words () -. before)

(* --- metrics registry --- *)

let test_metrics_counter_and_alist () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~group:"method" "updates_committed" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3.0;
  checkf "counter value" 5.0 (Metrics.value c);
  Metrics.gauge_fn m ~group:"engine" "pending" (fun () -> 17.0);
  Alcotest.(check (list (pair string (float 1e-9))))
    "group filter reproduces method list"
    [ ("updates_committed", 5.0) ]
    (Metrics.alist ~group:"method" m)

let test_metrics_snapshot_order () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~group:"g" "a" in
  let _b = Metrics.counter m ~group:"g" "b" in
  Metrics.incr a;
  let names = List.map (fun e -> e.Metrics.name) (Metrics.snapshot m) in
  Alcotest.(check (list string)) "registration order" [ "a"; "b" ] names

(* Gauges over one probe read it once per snapshot, whatever the number
   of gauges, and each snapshot reads it afresh. *)
let test_metrics_shared_probe () =
  let m = Metrics.create () in
  let reads = ref 0 and level = ref 1.0 in
  Metrics.gauges_fn m ~group:"res" ~site:0
    (fun () ->
      incr reads;
      (!level, 2.0 *. !level))
    [ ("a", fst); ("b", snd) ];
  let values () =
    List.map
      (fun e -> match e.Metrics.view with Metrics.Gauge_v v -> v | _ -> nan)
      (Metrics.snapshot m)
  in
  Alcotest.(check (list (float 0.0))) "fields of one read" [ 1.0; 2.0 ] (values ());
  checki "one read" 1 !reads;
  level := 5.0;
  Alcotest.(check (list (float 0.0))) "read afresh" [ 5.0; 10.0 ] (values ());
  Alcotest.(check (list (pair string (float 0.0))))
    "alist" [ ("a.s0", 5.0); ("b.s0", 10.0) ]
    (Metrics.alist ~group:"res" m);
  checki "one read per snapshot" 3 !reads

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~group:"g" ~buckets:[ 10.0; 100.0 ] "lat" in
  List.iter (Metrics.observe h) [ 5.0; 50.0; 500.0; 7.0 ];
  match Metrics.snapshot m with
  | [ { Metrics.view = Metrics.Histogram_v { counts; sum; count; _ }; _ } ] ->
      Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1 |] counts;
      checkf "sum" 562.0 sum;
      checki "count" 4 count
  | _ -> Alcotest.fail "expected one histogram entry"

(* Bucket-interpolated percentiles on a hand-computed distribution:
   100 observations over buckets [10;20;50;100] filled 50/30/15/5.
   target(q) = q/100*count lands in a bucket; the answer interpolates
   linearly between the bucket's bounds. *)
let test_percentiles_known_distribution () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~group:"g" ~buckets:[ 10.0; 20.0; 50.0; 100.0 ] "lat"
  in
  let fill v n = for _ = 1 to n do Metrics.observe h v done in
  fill 5.0 50;
  fill 15.0 30;
  fill 30.0 15;
  fill 75.0 5;
  (* p50: target 50 = the whole first bucket -> its upper bound. *)
  checkf "p50" 10.0 (Metrics.percentile h 50.0);
  (* p90: target 90, 80 below bucket [20,50), 10/15 into it. *)
  checkf "p90" 40.0 (Metrics.percentile h 90.0);
  (* p99: target 99, 95 below bucket [50,100), 4/5 into it. *)
  checkf "p99" 90.0 (Metrics.percentile h 99.0);
  (* empty histogram reads 0, not NaN *)
  let h' = Metrics.histogram m ~group:"g" ~buckets:[ 1.0 ] "empty" in
  checkf "empty" 0.0 (Metrics.percentile h' 99.0)

let capture_openmetrics entries =
  let path = Filename.temp_file "esr_om" ".om" in
  let oc = open_out path in
  Openmetrics.write_snapshot oc entries;
  close_out oc;
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  body

let test_openmetrics_exposition () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~group:"method" "updates_committed" in
  Metrics.add c 7.0;
  Metrics.gauge_fn m ~group:"engine" "pending" (fun () -> 3.0);
  let h = Metrics.histogram m ~group:"net" ~buckets:[ 10.0; 100.0 ] "lat" in
  List.iter (Metrics.observe h) [ 5.0; 50.0; 500.0 ];
  let body = capture_openmetrics (Metrics.snapshot m) in
  let lines = String.split_on_char '\n' body in
  let has l = List.mem l lines in
  checkb "counter TYPE" true (has "# TYPE esr_method_updates_committed counter");
  checkb "counter _total sample" true (has "esr_method_updates_committed_total 7");
  checkb "gauge sample" true (has "esr_engine_pending 3");
  checkb "histogram TYPE" true (has "# TYPE esr_net_lat histogram");
  (* buckets are cumulative and close with +Inf = count *)
  checkb "le=10" true (has "esr_net_lat_bucket{le=\"10\"} 1");
  checkb "le=100" true (has "esr_net_lat_bucket{le=\"100\"} 2");
  checkb "le=+Inf" true (has "esr_net_lat_bucket{le=\"+Inf\"} 3");
  checkb "sum" true (has "esr_net_lat_sum 555");
  checkb "count" true (has "esr_net_lat_count 3");
  checkb "derived p50 family" true (has "# TYPE esr_net_lat_p50 gauge");
  checkb "derived p99 gauge present" true
    (List.exists
       (fun l -> String.length l > 15 && String.sub l 0 15 = "esr_net_lat_p99")
       lines);
  (match List.rev lines with
  | "" :: last :: _ -> checks "terminator" "# EOF" last
  | _ -> Alcotest.fail "missing trailing newline after # EOF");
  (* per-site instruments fold into one family with a site label *)
  let m2 = Metrics.create () in
  let s0 = Metrics.counter m2 ~group:"net" ~site:0 "sent" in
  let _s1 = Metrics.counter m2 ~group:"net" ~site:1 "sent" in
  Metrics.incr s0;
  let body2 = capture_openmetrics (Metrics.snapshot m2) in
  let lines2 = String.split_on_char '\n' body2 in
  checkb "one family header" true
    (1 = List.length (List.filter (fun l -> l = "# TYPE esr_net_sent counter") lines2));
  checkb "site label" true (List.mem "esr_net_sent_total{site=\"0\"} 1" lines2)

(* --- tracing must not perturb outcomes --- *)

let small_spec =
  {
    Spec.default with
    Spec.duration = 500.0;
    update_rate = 0.04;
    query_rate = 0.04;
    n_keys = 8;
    epsilon = Epsilon.Limit 4;
  }

(* Everything observable about a run, rendered to one string.  If tracing
   changed any PRNG draw, event ordering, or metric, this differs. *)
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

(* A run's fingerprint and, traced, the number of events a tap saw. *)
let run_with ~tracing ~seed ~method_name =
  let obs = Obs.create ~tracing () in
  let events = ref 0 in
  if tracing then Trace.attach obs.Obs.trace (fun _ -> incr events);
  let r = Scenario.run ~obs ~seed ~sites:3 ~method_name small_spec in
  (fingerprint r, !events)

let test_tracing_identical_outcomes () =
  List.iter
    (fun method_name ->
      let off, _ = run_with ~tracing:false ~seed:17 ~method_name in
      let on, events = run_with ~tracing:true ~seed:17 ~method_name in
      checks (method_name ^ " outcomes identical") off on;
      checkb (method_name ^ " trace non-empty") true (events > 0))
    [ "ORDUP"; "COMPE"; "2PC" ]

let prop_tracing_invisible =
  QCheck.Test.make ~count:20 ~name:"tracing on/off: identical run fingerprint"
    QCheck.(pair (int_range 1 1000) (int_range 0 6))
    (fun (seed, mi) ->
      let method_name =
        List.nth
          [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
          mi
      in
      let off, _ = run_with ~tracing:false ~seed ~method_name in
      let on, _ = run_with ~tracing:true ~seed ~method_name in
      String.equal off on)

(* --- end-to-end trace content --- *)

(* A traced run and its records, collected by a list tap; [attach] adds
   its own taps after that one, before the run. *)
let traced_run ?(method_name = "ORDUP") ?(attach = ignore) () =
  let obs = Obs.create ~tracing:true () in
  let records = Tap.collect obs.Obs.trace in
  attach obs.Obs.trace;
  let r = Scenario.run ~obs ~seed:17 ~sites:3 ~method_name small_spec in
  (r, records ())

let test_query_served_within_epsilon () =
  let r, records = traced_run () in
  checkb "queries ran" true (r.Scenario.served > 0);
  let seen = ref 0 in
  List.iter
    (fun (rec_ : Trace.record) ->
      match rec_.Trace.ev with
      | Trace.Query_served { charged; epsilon = Some eps; _ } ->
          incr seen;
          checkb "charged within budget" true (charged <= eps)
      | Trace.Query_served { epsilon = None; _ } ->
          Alcotest.fail "spec has a finite epsilon; trace says Unlimited"
      | _ -> ())
    records;
  checki "every served query traced" r.Scenario.served !seen

let test_trace_covers_lifecycles () =
  let r, records = traced_run () in
  let commits = ref 0 and begins = ref 0 and msets = ref 0 in
  List.iter
    (fun (rec_ : Trace.record) ->
      match rec_.Trace.ev with
      | Trace.Update_committed _ -> incr commits
      | Trace.Update_begin _ -> incr begins
      | Trace.Mset_applied _ -> incr msets
      | _ -> ())
    records;
  checki "one commit event per committed ET" r.Scenario.committed !commits;
  checki "one begin per submission" r.Scenario.submitted_updates !begins;
  checkb "msets propagate to peers" true (!msets > 0)

(* What [write] puts in a file, as a string. *)
let file_contents write =
  let path = Filename.temp_file "esr_obs" ".out" in
  Out_channel.with_open_bin path write;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* The Chrome export of [records], as [report --chrome] writes it. *)
let chrome_of_records records =
  file_contents (fun oc ->
      let write, close = Trace.chrome_writer oc ~sites:3 in
      List.iter write records;
      close ~extra:[])

let test_chrome_export_wellformed () =
  let _, records = traced_run () in
  let body = chrome_of_records records in
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "traceEvents array" true (contains "\"traceEvents\"");
  checkb "complete spans" true (contains "\"ph\":\"X\"");
  checkb "instants" true (contains "\"ph\":\"i\"");
  checkb "per-site track names" true (contains "\"thread_name\"");
  checkb "query spans labelled" true (contains "query_served");
  (* braces/brackets balance: cheap well-formedness check without a JSON
     parser (string payloads never contain braces) *)
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      (match c with
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ());
      if !depth < 0 then ok := false)
    body;
  checkb "balanced nesting" true (!ok && !depth = 0)

(* A file sink writes every record as it is emitted, and each line reads
   back as the record the list tap saw. *)
let test_jsonl_export_parses_back () =
  let records = ref [] in
  let text =
    file_contents (fun oc ->
        records := snd (traced_run ~attach:(fun t -> Trace.file_sink t oc) ()))
  in
  let lines = String.split_on_char '\n' text in
  checki "one line per record, newline-ended" (List.length !records + 1)
    (List.length lines);
  List.iteri
    (fun i (r : Trace.record) ->
      let line = List.nth lines i in
      match Trace.record_of_json line with
      | Ok r' -> checkb (Printf.sprintf "line %d reads back" i) true (r = r')
      | Error e -> Alcotest.failf "line %d unparseable (%s): %s" i e line)
    !records

(* The Chrome export streamed from a run's tap is byte for byte what the
   writer makes of the records a list tap collected from the same run. *)
let test_chrome_streamed_equals_list () =
  let records = ref [] in
  let streamed =
    file_contents (fun oc ->
        let write, close = Trace.chrome_writer oc ~sites:3 in
        records :=
          snd (traced_run ~method_name:"COMPE" ~attach:(fun t -> Trace.attach t write) ());
        close ~extra:[])
  in
  checkb "a run's worth of events" true (List.length !records > 100);
  checks "streamed = list export" (chrome_of_records !records) streamed

(* --- codec: every reader fails cleanly, every writer round-trips --- *)

module Json = Esr_util.Json
module Audit = Esr_obs.Audit
module Series = Esr_obs.Series
module Prof = Esr_obs.Prof
module Schedule = Esr_fault.Schedule

let gen_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\031'; '/'; 'a' ]; char ])
      (int_bound 8))

(* Finite floats, most of them needing 17 significant digits. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> let v = Int64.float_of_bits b in if Float.is_finite v then v else 0.1) ui64;
        map (fun i -> float_of_int i /. 3.0) (int_range (-1000000) 1000000);
        map float_of_int (int_range (-100) 100);
        oneofl [ 0.0; -0.0; 1e12; 1e15; 2.5e-310 ];
      ])

let gen_int = QCheck.Gen.int_range (-1) 1_000_000_000
let gen_opt g = QCheck.Gen.opt g
let gen_keys = QCheck.Gen.(list_size (int_bound 3) gen_string)

let gen_event =
  let open QCheck.Gen in
  oneof
    [
      map3 (fun src dst cls -> Trace.Msg_sent { src; dst; cls }) gen_int gen_int gen_string;
      map3
        (fun (src, dst) cls reason -> Trace.Msg_dropped { src; dst; cls; reason })
        (pair gen_int gen_int) gen_string
        (oneofl [ Trace.Loss; Partition; Crashed_src; Crashed_dst ]);
      map (fun groups -> Trace.Partition_event { groups })
        (list_size (int_bound 3) (list_size (int_bound 3) gen_int));
      map3 (fun u origin latency -> Trace.Update_committed { u; origin; latency }) gen_int gen_int gen_float;
      map3 (fun u origin reason -> Trace.Update_rejected { u; origin; reason }) gen_int gen_int gen_string;
      map3
        (fun (q, site) (charged, forced) (epsilon, consistent_path, latency) ->
          Trace.Query_served { q; site; charged; forced; epsilon; consistent_path; latency })
        (pair gen_int gen_int) (pair gen_int (int_range (-1) 3))
        (triple (gen_opt gen_int) bool gen_float);
      map3 (fun et n_ops keys -> Trace.Mset_enqueued { et; origin = 0; n_ops; keys }) gen_int gen_int gen_keys;
      map3 (fun et site order -> Trace.Mset_applied { et; site; n_ops = 1; order }) gen_int gen_int
        (gen_opt gen_int);
      map3 (fun w point keys -> Trace.Query_window { w; site = 0; point; missing = 1; keys }) gen_int
        gen_int gen_keys;
      map2 (fun w outcome -> Trace.Query_window_closed { w; site = 1; charged = 2; outcome }) gen_int
        (oneofl [ `Ok; `Fallback; `Killed ]);
      map2 (fun et kind -> Trace.Compensation_fired { et; site = 0; kind }) gen_int
        (oneofl [ `Fast; `Full; `Revoke ]);
      map (fun ok -> Trace.Converged { ok }) bool;
      return Trace.Heal;
    ]

let gen_record = QCheck.Gen.map2 (fun time ev -> { Trace.time; ev }) gen_float gen_event

(* Taps see every record, each equal to the one emitted, in emit order
   and, for each record, in attach order. *)
let prop_ring_matches_list =
  QCheck.Test.make ~count:300 ~name:"ring keeps what a list model keeps"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) gen_record))
    (fun records ->
      let t = Trace.make ~enabled:true () in
      let tapped = ref [] in
      Trace.attach t (fun r -> tapped := (1, r) :: !tapped);
      Trace.attach t (fun r -> tapped := (2, r) :: !tapped);
      List.iter (fun (r : Trace.record) -> Trace.emit t ~time:r.Trace.time r.Trace.ev) records;
      List.rev !tapped = List.concat_map (fun r -> [ (1, r); (2, r) ]) records)

let gen_report =
  let open QCheck.Gen in
  let violation =
    map3
      (fun (k, inv) (detail, v_time) v_event ->
        { Audit.v_kind = k; v_invariant = inv; v_detail = detail; v_time; v_event })
      (pair (oneofl Audit.[ Delivery; Ordering; Epsilon; Crash; Checkpoint; Convergence ]) gen_string)
      (pair gen_string gen_float) gen_string
  in
  let entry =
    map3
      (fun (l_q, l_epsilon, l_charged) (l_consistent, l_latency) (l_reconstructed, l_oracle) ->
        {
          Audit.l_q; l_site = 1; l_keys = 2; l_epsilon; l_charged; l_forced = 0; l_consistent;
          l_latency; l_reconstructed; l_oracle;
        })
      (triple gen_int (gen_opt gen_int) gen_int) (pair bool gen_float)
      (pair (gen_opt gen_int) (gen_opt gen_float))
  in
  map3
    (fun label (violations, ledger) (n, converged) ->
      {
        Audit.label;
        violations;
        ledger;
        summary =
          {
            Audit.s_events = n; s_queries = n; s_bounded = 1; s_at_bound = 2;
            s_charged_total = 3; s_windows = 4; s_windows_exact = 5; s_max_replay = 6;
            s_max_crash_log = 7; s_crashes = 8; s_cuts = 9; s_converged = converged;
          };
      })
    gen_string
    (pair (list_size (int_bound 3) violation) (list_size (int_bound 3) entry))
    (pair gen_int (gen_opt bool))

let gen_series =
  let open QCheck.Gen in
  int_bound 3 >>= fun n ->
  map3
    (fun (d_interval, d_dropped) (cols, samples) notes ->
      {
        Series.d_interval;
        d_columns = Array.of_list cols;
        d_samples = samples;
        d_annotations = List.map (fun (at, label) -> { Series.at; label }) notes;
        d_dropped;
      })
    (pair gen_float gen_int)
    (pair (list_repeat n gen_string)
       (list_size (int_bound 4)
          (map2 (fun at vs -> { Series.at; values = Array.of_list vs }) gen_float (list_repeat n gen_float))))
    (list_size (int_bound 3) (pair gen_float gen_string))

let gen_profile =
  let open QCheck.Gen in
  let agg = map3 (fun count seconds alloc_bytes -> { Prof.count; seconds; alloc_bytes }) gen_int gen_float gen_float in
  let span =
    map3
      (fun (sp_phase, sp_site) sp_start (sp_dur, sp_bytes) -> { Prof.sp_phase; sp_site; sp_start; sp_dur; sp_bytes })
      (pair (oneofl Prof.all_phases) gen_int) gen_float (pair gen_float gen_float)
  in
  map3
    (fun d_phases d_spans d_spans_dropped -> { Prof.d_phases; d_spans; d_spans_dropped })
    (flatten_l (List.map (fun p -> map (fun a -> (p, a)) agg) Prof.all_phases))
    (list_size (int_bound 4) span) gen_int

(* [write], then [read], then [write] again: the two writes agree. *)
let round_trip ~name gen write read =
  QCheck.Test.make ~name ~count:300 (QCheck.make gen) (fun v ->
      let first = write v in
      match read first with
      | Ok v' -> String.equal first (write v')
      | Error m -> QCheck.Test.fail_reportf "%s did not read back: %s" first m)

let prop_trace_round_trip =
  round_trip ~name:"trace record write-read-write" gen_record Trace.record_to_json Trace.record_of_json

let prop_audit_round_trip =
  round_trip ~name:"audit certificate write-read-write" gen_report Audit.report_to_json
    Audit.report_of_json

let prop_series_round_trip =
  round_trip ~name:"series dump write-read-write" gen_series
    (fun d -> file_contents (fun oc -> Series.write_json oc d))
    Series.dump_of_json

let prop_profile_round_trip =
  round_trip ~name:"profile dump write-read-write" gen_profile
    (fun d -> file_contents (fun oc -> Prof.write_json oc d))
    Prof.dump_of_json

(* Every reader, fed anything: [Ok] or [Error], never an exception. *)
let readers =
  [
    ("json", fun s -> Result.is_ok (Json.parse s));
    ("trace", fun s -> Result.is_ok (Trace.record_of_json s));
    ("audit", fun s -> Result.is_ok (Audit.report_of_json s));
    ("series", fun s -> Result.is_ok (Series.dump_of_json s));
    ("profile", fun s -> Result.is_ok (Prof.dump_of_json s));
    ("faults", fun s -> Result.is_ok (Schedule.of_spec s));
  ]

(* Valid documents of every format, to truncate and flip. *)
let corpus =
  let rand = Random.State.make [| 28 |] in
  let sample gen n = List.init n (fun _ -> QCheck.Gen.generate1 ~rand gen) in
  List.map Trace.record_to_json (sample gen_record 8)
  @ List.map Audit.report_to_json (sample gen_report 4)
  @ List.map (fun d -> file_contents (fun oc -> Series.write_json oc d)) (sample gen_series 4)
  @ List.map (fun d -> file_contents (fun oc -> Prof.write_json oc d)) (sample gen_profile 4)
  @ [ "crash@400:2;recover@900:2;partition@1000:0 1|2 3;heal@1500"; "crash@1:0" ]

let gen_garbage =
  let open QCheck.Gen in
  oneof
    [
      string_size ~gen:char (int_bound 40);
      (oneofl corpus >>= fun doc -> map (fun k -> String.sub doc 0 (k mod (String.length doc + 1))) nat);
      ( oneofl corpus >>= fun doc ->
        map2
          (fun k c ->
            if doc = "" then doc
            else String.mapi (fun i x -> if i = k mod String.length doc then c else x) doc)
          nat char );
    ]

let prop_readers_total =
  QCheck.Test.make ~name:"readers return Ok or Error on any input" ~count:2000
    (QCheck.make ~print:String.escaped gen_garbage) (fun text ->
      List.for_all
        (fun (name, read) ->
          match read text with
          | _ -> true
          | exception e -> QCheck.Test.fail_reportf "%s reader raised %s" name (Printexc.to_string e))
        readers)

let () =
  Alcotest.run "esr_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled sink is inert" `Quick
            test_trace_disabled_is_inert;
          QCheck_alcotest.to_alcotest prop_ring_matches_list;
          Alcotest.test_case "emit stores scalars, allocates nothing" `Quick
            test_emit_allocation;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip whole vocabulary" `Quick
            test_jsonl_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter + alist" `Quick
            test_metrics_counter_and_alist;
          Alcotest.test_case "snapshot order" `Quick test_metrics_snapshot_order;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "percentiles on a known distribution" `Quick
            test_percentiles_known_distribution;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_openmetrics_exposition;
          Alcotest.test_case "gauges over one probe" `Quick
            test_metrics_shared_probe;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "tracing on/off identical (3 methods)" `Quick
            test_tracing_identical_outcomes;
          QCheck_alcotest.to_alcotest prop_tracing_invisible;
        ] );
      ( "content",
        [
          Alcotest.test_case "charged within epsilon" `Quick
            test_query_served_within_epsilon;
          Alcotest.test_case "lifecycle coverage" `Quick
            test_trace_covers_lifecycles;
          Alcotest.test_case "chrome export well-formed" `Quick
            test_chrome_export_wellformed;
          Alcotest.test_case "jsonl export parses back" `Quick
            test_jsonl_export_parses_back;
          Alcotest.test_case "streamed chrome export = list export" `Quick
            test_chrome_streamed_equals_list;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trace_round_trip;
            prop_audit_round_trip;
            prop_series_round_trip;
            prop_profile_round_trip;
            prop_readers_total;
          ] );
    ]
