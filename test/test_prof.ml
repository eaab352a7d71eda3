(* Host-time profiler and per-site resource accounting.

   Two cross-cutting invariants guard the observatory: (1) the phase
   profiler is invisible — profiling on/off produces byte-identical run
   fingerprints for every method, because the profiler only reads host
   clocks and GC counters; (2) the cumulative resource gauges (durable
   log length/bytes, WAL appends, journal enqueues) are monotone
   non-decreasing over a sampled run — they count what was ever written,
   not what is currently standing. *)

module Obs = Esr_obs.Obs
module Prof = Esr_obs.Prof
module Series = Esr_obs.Series
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Replica = Esr_replica.Replica
module Engine = Esr_sim.Engine
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Epsilon = Esr_core.Epsilon
module Schedule = Esr_fault.Schedule

let checks name = Alcotest.(check string) name
let checkb name = Alcotest.(check bool) name
let checki name = Alcotest.(check int) name

let all_methods =
  [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* --- profiler core --- *)

let test_disabled_is_inert () =
  let p = Prof.disabled in
  checkb "off" false (Prof.on p);
  let t0 = Prof.start p and a0 = Prof.alloc0 p in
  Prof.record p Prof.Apply ~t0 ~a0;
  checki "no spans" 0 (Prof.span_count p);
  List.iter
    (fun (_, (a : Prof.agg)) -> checki "zero agg" 0 a.Prof.count)
    (Prof.aggs p);
  let off = Prof.make ~enabled:false () in
  checkb "make ~enabled:false is the shared disabled profiler" true
    (off == Prof.disabled)

let test_record_and_aggregate () =
  let p = Prof.make ~enabled:true () in
  checkb "on" true (Prof.on p);
  for _ = 1 to 3 do
    let t0 = Prof.start p and a0 = Prof.alloc0 p in
    ignore (Sys.opaque_identity (String.make 64 'x'));
    Prof.record p ~site:1 Prof.Apply ~t0 ~a0
  done;
  let t0 = Prof.start p and a0 = Prof.alloc0 p in
  Prof.record p Prof.Engine_dispatch ~t0 ~a0;
  let apply = Prof.agg p Prof.Apply in
  checki "apply spans" 3 apply.Prof.count;
  checkb "apply time non-negative" true (apply.Prof.seconds >= 0.0);
  checkb "apply allocated" true (apply.Prof.alloc_bytes > 0.0);
  checki "total spans" 4 (Prof.span_count p);
  let sites =
    List.map (fun (s : Prof.span) -> s.Prof.sp_site) (Prof.spans p)
  in
  checkb "site recorded" true (List.mem 1 sites);
  checkb "siteless span is -1" true (List.mem (-1) sites)

let test_phase_names_roundtrip () =
  List.iter
    (fun ph ->
      match Prof.phase_of_name (Prof.phase_name ph) with
      | Some back -> checkb (Prof.phase_name ph) true (back = ph)
      | None -> Alcotest.failf "phase %s did not round-trip" (Prof.phase_name ph))
    Prof.all_phases;
  checkb "unknown name" true (Prof.phase_of_name "nope" = None)

let test_dump_json_roundtrip () =
  let p = Prof.make ~enabled:true () in
  for i = 0 to 4 do
    let t0 = Prof.start p and a0 = Prof.alloc0 p in
    ignore (Sys.opaque_identity (Array.make 16 i));
    Prof.record p ~site:(i mod 2) Prof.Net_delivery ~t0 ~a0
  done;
  let path = Filename.temp_file "esr_prof" ".json" in
  let oc = open_out path in
  Prof.write_json oc (Prof.dump p);
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Prof.dump_of_json text with
  | Error m -> Alcotest.failf "dump_of_json: %s" m
  | Ok d ->
      let nd =
        List.assoc Prof.Net_delivery
          (List.map (fun (ph, a) -> (ph, a)) d.Prof.d_phases)
      in
      checki "parsed net_delivery count" 5 nd.Prof.count;
      checki "parsed spans" 5 (List.length d.Prof.d_spans);
      checki "no drops" 0 d.Prof.d_spans_dropped

(* An unknown phase or a span row of the wrong shape fails the dump
   rather than vanishing from it. *)
let test_dump_rejects_malformed () =
  let phase name =
    Printf.sprintf {|{"phase":"%s","count":1,"seconds":0.5,"alloc_bytes":8}|} name
  in
  let doc ~phases ~spans =
    Printf.sprintf {|{"schema":"esr-profile/1","phases":[%s],
"spans_dropped":0,
"spans":[%s]}|}
      (String.concat "," phases) spans
  in
  (match Prof.dump_of_json (doc ~phases:[ phase "apply" ] ~spans:{|["apply",1,0.5,0.25,8]|}) with
  | Ok d -> checki "good dump reads" 1 (List.length d.Prof.d_spans)
  | Error m -> Alcotest.failf "good dump rejected: %s" m);
  List.iter
    (fun (phases, spans) ->
      match Prof.dump_of_json (doc ~phases ~spans) with
      | Ok _ -> Alcotest.failf "accepted spans %s" spans
      | Error _ -> ())
    [
      ([ phase "apply"; phase "nope" ], "");
      ([ phase "apply" ], {|["apply",1,0.5,0.25]|});
      ([ phase "apply" ], {|["nope",1,0.5,0.25,8]|});
      ([ phase "apply" ], {|["apply",1.5,0.5,0.25,8]|});
      ([ phase "apply" ], {|{"phase":"apply"}|});
    ]

(* A profiler nothing refers to any more is garbage, span ring and all:
   the sweep totals are kept process-wide, not by holding on to every
   enabled profiler. *)
let test_dropped_profilers_collected () =
  let finalised = ref 0 in
  let make_and_drop () =
    let p = Prof.make ~enabled:true () in
    for _ = 1 to 1_000 do
      let t0 = Prof.start p and a0 = Prof.alloc0 p in
      Prof.record p ~site:0 Prof.Apply ~t0 ~a0
    done;
    Gc.finalise (fun _ -> incr finalised) p
  in
  for _ = 1 to 10 do
    (make_and_drop [@inlined never]) ()
  done;
  Gc.full_major ();
  checki "finalisers run" 10 !finalised

(* [Prof.totals] is the sum of every enabled profiler's aggregates since
   the last [reset_totals]; the disabled profiler adds nothing. *)
let test_totals_sum_profilers () =
  Prof.reset_totals ();
  let record p phase n =
    for i = 1 to n do
      let t0 = Prof.start p and a0 = Prof.alloc0 p in
      ignore (Sys.opaque_identity (Array.make 8 i));
      Prof.record p phase ~t0 ~a0
    done
  in
  let a = Prof.make ~enabled:true () and b = Prof.make ~enabled:true () in
  record a Prof.Apply 3;
  record b Prof.Apply 2;
  record b Prof.Replay 4;
  record Prof.disabled Prof.Apply 5;
  let check_agg name (want : Prof.agg) (got : Prof.agg) =
    checki (name ^ " count") want.Prof.count got.Prof.count;
    Alcotest.(check (float 1e-9)) (name ^ " seconds") want.Prof.seconds
      got.Prof.seconds;
    Alcotest.(check (float 0.0)) (name ^ " bytes") want.Prof.alloc_bytes
      got.Prof.alloc_bytes
  in
  List.iter
    (fun (phase, got) ->
      let x = Prof.agg a phase and y = Prof.agg b phase in
      check_agg (Prof.phase_name phase)
        {
          Prof.count = x.Prof.count + y.Prof.count;
          seconds = x.Prof.seconds +. y.Prof.seconds;
          alloc_bytes = x.Prof.alloc_bytes +. y.Prof.alloc_bytes;
        }
        got)
    (Prof.totals ());
  checki "apply spans" 5 (List.assoc Prof.Apply (Prof.totals ())).Prof.count;
  Prof.reset_totals ();
  List.iter
    (fun (phase, got) ->
      check_agg (Prof.phase_name phase ^ " after reset")
        { Prof.count = 0; seconds = 0.0; alloc_bytes = 0.0 }
        got)
    (Prof.totals ())

(* --- profiling must not perturb outcomes --- *)

let small_spec =
  {
    Spec.default with
    Spec.duration = 500.0;
    update_rate = 0.04;
    query_rate = 0.04;
    n_keys = 8;
    epsilon = Epsilon.Limit 4;
  }

(* Everything observable about a run, rendered to one string (the same
   fingerprint test_obs uses for tracing invisibility). *)
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

let run_with ~profiling ~seed ~method_name =
  let obs = Obs.create ~profiling () in
  let r = Scenario.run ~obs ~seed ~sites:3 ~method_name small_spec in
  (fingerprint r, obs)

let test_profiling_identical_outcomes () =
  List.iter
    (fun method_name ->
      let off, _ = run_with ~profiling:false ~seed:17 ~method_name in
      let on, obs = run_with ~profiling:true ~seed:17 ~method_name in
      checks (method_name ^ " outcomes identical") off on;
      checkb
        (method_name ^ " spans recorded")
        true
        (Prof.span_count obs.Obs.prof > 0);
      let dispatch = Prof.agg obs.Obs.prof Prof.Engine_dispatch in
      checkb (method_name ^ " dispatch timed") true (dispatch.Prof.count > 0))
    all_methods

let prop_profiling_invisible =
  QCheck.Test.make ~count:20
    ~name:"profiling on/off: identical run fingerprint"
    QCheck.(pair (int_range 1 1000) (int_range 0 6))
    (fun (seed, mi) ->
      let method_name = List.nth all_methods mi in
      let off, _ = run_with ~profiling:false ~seed ~method_name in
      let on, _ = run_with ~profiling:true ~seed ~method_name in
      String.equal off on)

(* Crash recovery exercises the Wal_append and Replay phases; the
   fingerprint must still be identical and the replay must be timed. *)
let test_profiling_invisible_under_faults () =
  let schedule =
    Schedule.make
      [
        { Schedule.at = 150.0; action = Schedule.Crash 1 };
        { Schedule.at = 320.0; action = Schedule.Recover 1 };
      ]
  in
  List.iter
    (fun method_name ->
      let run profiling =
        let obs = Obs.create ~profiling () in
        let r =
          Scenario.run ~obs ~seed:23 ~sites:3 ~faults:schedule ~method_name
            small_spec
        in
        (fingerprint r, obs)
      in
      let off, _ = run false in
      let on, obs = run true in
      checks (method_name ^ " faulty outcomes identical") off on;
      let replay = Prof.agg obs.Obs.prof Prof.Replay in
      checkb (method_name ^ " replay timed") true (replay.Prof.count > 0))
    all_methods

(* --- cumulative resource series are monotone --- *)

let test_resource_series_monotone () =
  List.iter
    (fun method_name ->
      let obs = Obs.create ~series:true ~series_interval:50.0 () in
      let h = Harness.create ~obs ~seed:7 ~sites:3 ~method_name () in
      let engine = Harness.engine h in
      for i = 0 to 39 do
        ignore
          (Engine.schedule_at engine
             ~time:(float_of_int (i + 1) *. 20.0)
             (fun () ->
               let key = Printf.sprintf "k%d" (i mod 4) in
               let intents =
                 match method_name with
                 | "RITU" | "QUORUM" ->
                     [ Intf.Set (key, Esr_store.Value.Int i) ]
                 | _ -> [ Intf.Add (key, 1) ]
               in
               Harness.submit_update h ~origin:(i mod 3) intents (fun _ -> ())))
      done;
      Harness.arm_series h ~until:900.0;
      ignore (Harness.settle_result h);
      let series = obs.Obs.series in
      checkb (method_name ^ " sampled") true (Series.length series > 1);
      List.iter
        (fun metric ->
          for site = 0 to 2 do
            let col = Printf.sprintf "res/%s.s%d" metric site in
            match Series.column_index series col with
            | None -> Alcotest.failf "%s: missing column %s" method_name col
            | Some i ->
                let prev = ref neg_infinity in
                Series.iter series (fun smp ->
                    let v = smp.Series.values.(i) in
                    if v < !prev then
                      Alcotest.failf "%s %s decreased: %g -> %g" method_name
                        col !prev v;
                    prev := v)
          done)
        [ "log_entries"; "log_bytes"; "wal_appended"; "journal_enqueued" ];
      (* The soak's growth signal: the summed durable log actually grew. *)
      let final = ref 0.0 in
      for site = 0 to 2 do
        let i =
          Option.get
            (Series.column_index series
               (Printf.sprintf "res/log_entries.s%d" site))
        in
        let last = ref 0.0 in
        Series.iter series (fun smp -> last := smp.Series.values.(i));
        final := !final +. !last
      done;
      checkb (method_name ^ " log grew") true (!final > 0.0))
    all_methods

(* Resource snapshots agree with the structures they summarize. *)
let test_resources_match_history () =
  let h = Harness.create ~seed:7 ~sites:3 ~method_name:"ORDUP" () in
  let engine = Harness.engine h in
  for i = 0 to 19 do
    ignore
      (Engine.schedule_at engine
         ~time:(float_of_int (i + 1) *. 10.0)
         (fun () ->
           Harness.submit_update h ~origin:(i mod 3)
             [ Intf.Add ("k", 1) ]
             (fun _ -> ())))
  done;
  ignore (Harness.settle_result h);
  for site = 0 to 2 do
    let r = Replica.resources (Harness.system h) ~site in
    checki
      (Printf.sprintf "site %d log matches history" site)
      (Esr_core.Hist.length (Harness.history h ~site))
      r.Intf.log_entries;
    checkb "log bytes positive" true (r.Intf.log_bytes > 0);
    checkb "journal drained at quiescence" true (r.Intf.journal_depth = 0);
    checkb "journal saw traffic" true (r.Intf.journal_enqueued > 0)
  done

(* A snapshot's [res/] gauges are one [Replica.resources] per site, in
   field order. *)
let test_res_gauges_one_probe () =
  let h = Harness.create ~seed:7 ~sites:3 ~method_name:"COMMU" () in
  let engine = Harness.engine h in
  for i = 0 to 9 do
    ignore
      (Engine.schedule_at engine
         ~time:(float_of_int (i + 1) *. 10.0)
         (fun () ->
           Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("k", 1) ] (fun _ -> ())))
  done;
  ignore (Harness.settle_result h);
  let res =
    List.filter_map
      (fun (e : Esr_obs.Metrics.entry) ->
        match (e.Esr_obs.Metrics.group, e.Esr_obs.Metrics.view) with
        | "res", Esr_obs.Metrics.Gauge_v v ->
            Some (e.Esr_obs.Metrics.name, Option.get e.Esr_obs.Metrics.site, v)
        | _ -> None)
      (Harness.stats h)
  in
  let expected =
    List.concat_map
      (fun site ->
        let r = Replica.resources (Harness.system h) ~site in
        List.map
          (fun (name, v) -> (name, site, float_of_int v))
          [
            ("log_entries", r.Intf.log_entries);
            ("log_bytes", r.Intf.log_bytes);
            ("wal_entries", r.Intf.wal_entries);
            ("wal_appended", r.Intf.wal_appended);
            ("wal_high_water", r.Intf.wal_high_water);
            ("journal_depth", r.Intf.journal_depth);
            ("journal_enqueued", r.Intf.journal_enqueued);
            ("store_words", r.Intf.store_words);
          ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (triple string int (float 0.0))))
    "res gauges = one resources per site" expected res

(* A fresh system holds state only where it will do work: beyond its
   keyspace, which [store_hint] sizes, a 64-site harness of any method
   takes under 1,000 words a site (no table, store images included, is
   sized to the keyspace; no stable-queue channel exists before its first
   send). *)
let test_fresh_footprint () =
  let sites = 64 in
  List.iter
    (fun method_name ->
      let h = Harness.create ~store_hint:20_000 ~sites ~method_name () in
      let words =
        Obj.reachable_words (Obj.repr h)
        - Obj.reachable_words (Obj.repr (Harness.env h).Intf.keyspace)
      in
      checkb
        (Printf.sprintf "%s: %d words beyond the keyspace < 64,000"
           method_name words)
        true (words < 64_000))
    all_methods

let () =
  Alcotest.run "prof"
    [
      ( "core",
        [
          Alcotest.test_case "disabled profiler is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "record and aggregate" `Quick
            test_record_and_aggregate;
          Alcotest.test_case "phase names round-trip" `Quick
            test_phase_names_roundtrip;
          Alcotest.test_case "dump JSON round-trip" `Quick
            test_dump_json_roundtrip;
          Alcotest.test_case "dump reader rejects malformed rows" `Quick
            test_dump_rejects_malformed;
          Alcotest.test_case "dropped profilers are collected" `Quick
            test_dropped_profilers_collected;
          Alcotest.test_case "totals sum every profiler" `Quick
            test_totals_sum_profilers;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "profiling on/off identical (7 methods)" `Quick
            test_profiling_identical_outcomes;
          QCheck_alcotest.to_alcotest prop_profiling_invisible;
          Alcotest.test_case "invisible under crash recovery" `Quick
            test_profiling_invisible_under_faults;
        ] );
      ( "resources",
        [
          Alcotest.test_case "cumulative series monotone (7 methods)" `Quick
            test_resource_series_monotone;
          Alcotest.test_case "snapshots match structures" `Quick
            test_resources_match_history;
          Alcotest.test_case "res gauges read one probe per site" `Quick
            test_res_gauges_one_probe;
          Alcotest.test_case "fresh 64-site footprint (7 methods)" `Quick
            test_fresh_footprint;
        ] );
    ]
