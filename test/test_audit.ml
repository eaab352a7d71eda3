(* Runtime consistency auditor: clean certification of live runs,
   mutation self-tests (each injected corruption must surface as exactly
   its invariant, pinned at the offending event), certificate round-trip,
   and the paper §2.1 overlap example reconstructed from trace events. *)

module Trace = Esr_obs.Trace
module Audit = Esr_obs.Audit
module Obs = Esr_obs.Obs
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Epsilon = Esr_core.Epsilon
module Hist = Esr_core.Hist
module Esr_check = Esr_core.Esr_check
module Nemesis = Esr_fault.Nemesis
module Schedule = Esr_fault.Schedule
module Sharding = Esr_store.Sharding

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let spec_for name ~duration =
  Spec.for_method name
    {
      Spec.default with
      Spec.duration;
      update_rate = 0.06;
      query_rate = 0.06;
      n_keys = 16;
      epsilon = Epsilon.Limit 3;
    }

(* One live nemesis run with the auditor tapped in; returns the raw
   records (for offline mutation replays) and the sealed certificate. *)
let run_audited ?sharding ~seed name =
  let sites = 4 in
  let schedule = Nemesis.generate ~seed ~sites ~duration:600.0 () in
  let obs = Obs.create ~tracing:true () in
  let audit = Audit.create ~label:name () in
  let r =
    Scenario.run ~seed:(seed + 1) ?sharding ~obs ~audit ~faults:schedule
      ~sites ~method_name:name (spec_for name ~duration:800.0)
  in
  ignore r;
  (Trace.to_list obs.Obs.trace, Audit.finish audit)

let pp_violations (r : Audit.report) =
  String.concat "; "
    (List.map
       (fun (v : Audit.violation) -> v.Audit.v_invariant ^ ": " ^ v.Audit.v_detail)
       r.Audit.violations)

(* --- clean certification of a live faulted run --- *)

let test_live_run_certifies () =
  let _, report = run_audited ~seed:7 "ORDUP" in
  checkb "certified" true (Audit.ok report);
  checkb "not partial" false (Audit.partial report);
  let s = report.Audit.summary in
  checkb "saw queries" true (s.Audit.s_queries > 0);
  checkb "saw windows" true (s.Audit.s_windows > 0);
  checki "every window reconstructed exactly" s.Audit.s_windows
    s.Audit.s_windows_exact;
  checkb "saw crashes" true (s.Audit.s_crashes > 0);
  Alcotest.(check (option bool)) "converged" (Some true) s.Audit.s_converged;
  checki "ledger covers every query" s.Audit.s_queries
    (List.length report.Audit.ledger);
  checkb "oracle distances noted" true
    (List.exists (fun (e : Audit.entry) -> e.Audit.l_oracle <> None)
       report.Audit.ledger)

(* --- mutation self-tests: the gate cannot pass vacuously --- *)

let first_violation name records =
  let report = Audit.audit_records ~label:name records in
  checkb (name ^ " flags the corruption") false (Audit.ok report);
  List.hd report.Audit.violations

let test_mutations () =
  let records, baseline = run_audited ~seed:11 "ORDUP" in
  checkb "baseline certifies" true (Audit.ok baseline);
  (* Replaying a delivered seq must read as a double delivery. *)
  let v = first_violation "replay" (Audit.Mutate.replay_delivery records) in
  checks "replay kind" "delivery" (Audit.kind_to_string v.Audit.v_kind);
  checks "replay invariant" "squeue-double-delivery" v.Audit.v_invariant;
  checks "replay pinned event" "squeue_delivered" v.Audit.v_event;
  (* Swapping two tickets in one site's stream must read as a gap at the
     first out-of-order execution. *)
  let v = first_violation "reorder" (Audit.Mutate.reorder_stream records) in
  checks "reorder kind" "ordering" (Audit.kind_to_string v.Audit.v_kind);
  checks "reorder invariant" "ordup-stream-gap" v.Audit.v_invariant;
  checks "reorder pinned event" "mset_applied" v.Audit.v_event;
  (* Bumping a charge past its epsilon must read as a bound violation. *)
  let v = first_violation "overcharge" (Audit.Mutate.overcharge records) in
  checks "overcharge kind" "epsilon" (Audit.kind_to_string v.Audit.v_kind);
  checks "overcharge invariant" "epsilon-exceeded" v.Audit.v_invariant;
  checks "overcharge pinned event" "query_served" v.Audit.v_event

(* --- stable-queue delivery state --- *)

let squeue_records script =
  List.mapi
    (fun i (kind, seq) ->
      let ev =
        match kind with
        | `Send -> Trace.Squeue_send { src = 0; dst = 1; seq }
        | `Deliver -> Trace.Squeue_delivered { src = 0; dst = 1; seq }
      in
      { Trace.time = float_of_int i; ev })
    script
  @ [ { Trace.time = 100.0; ev = Trace.Converged { ok = true } } ]

let invariants script =
  List.map
    (fun (v : Audit.violation) -> v.Audit.v_invariant)
    (Audit.audit_records (squeue_records script)).Audit.violations

(* The auditor keeps a channel's delivered seqs as a watermark plus the
   out-of-order ones past it, yet flags exactly what a set of every
   delivered seq would. *)
let test_delivery_watermark () =
  let sends = [ (`Send, 0); (`Send, 1); (`Send, 2) ] in
  Alcotest.(check (list string))
    "out-of-order deliveries fold into the mark" []
    (invariants (sends @ [ (`Deliver, 0); (`Deliver, 2); (`Deliver, 1) ]));
  Alcotest.(check (list string))
    "a duplicate below the mark is a double delivery"
    [ "squeue-double-delivery"; "squeue-double-delivery" ]
    (invariants
       (sends
       @ [ (`Deliver, 0); (`Deliver, 2); (`Deliver, 1); (`Deliver, 1); (`Deliver, 2) ]
       ));
  Alcotest.(check (list string))
    "a duplicate above the mark is a double delivery"
    [ "squeue-double-delivery"; "squeue-undelivered" ]
    (invariants (sends @ [ (`Deliver, 2); (`Deliver, 2) ]));
  Alcotest.(check (list string))
    "an unsent seq is flagged"
    [ "squeue-delivered-unsent"; "squeue-undelivered" ]
    (invariants [ (`Send, 0); (`Deliver, 0); (`Deliver, 1) ]);
  Alcotest.(check (list string))
    "a gap left at quiescence is undelivered" [ "squeue-undelivered" ]
    (invariants (sends @ [ (`Deliver, 0); (`Deliver, 2) ]))

(* Memory follows live state: a million in-order deliveries on one
   channel leave the auditor as small as a handful do. *)
let test_delivery_memory_bounded () =
  let a = Audit.create () in
  for seq = 0 to 999_999 do
    let time = float_of_int seq in
    Audit.feed a { Trace.time; ev = Trace.Squeue_send { src = 0; dst = 1; seq } };
    Audit.feed a { Trace.time; ev = Trace.Squeue_delivered { src = 0; dst = 1; seq } }
  done;
  let words = Obj.reachable_words (Obj.repr a) in
  checkb (Printf.sprintf "auditor holds %d words (< 4096)" words) true (words < 4096);
  checkb "certified" true (Audit.ok (Audit.finish a))

(* An in-order send/deliver stream feeds without allocating: channels
   are keyed by an int, and a warm channel needs no new record. *)
let test_delivery_feeds_without_allocating () =
  let a = Audit.create () in
  let n = 100_000 in
  let records =
    Array.init (2 * n) (fun i ->
        let src = i / 2 mod 7 and seq = i / 14 in
        let ev =
          if i mod 2 = 0 then Trace.Squeue_send { src; dst = 7; seq }
          else Trace.Squeue_delivered { src; dst = 7; seq }
        in
        { Trace.time = float_of_int (i / 2); ev })
  in
  let warm = Array.sub records 0 1000 and rest = Array.sub records 1000 ((2 * n) - 1000) in
  Array.iter (Audit.feed a) warm;
  let w0 = Gc.minor_words () in
  Array.iter (Audit.feed a) rest;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int (Array.length rest) in
  checkb (Printf.sprintf "%.2f minor words per squeue event < 0.01" per_event) true
    (per_event < 0.01);
  checkb "certified" true (Audit.ok (Audit.finish a))

(* End-of-trace verdicts come in channel, window and site order, however
   the auditor's tables hash: with every table created after
   [Hashtbl.randomize] seeded at random, five audits of one trace agree
   and their verdicts are sorted. *)
let test_end_verdicts_sorted () =
  Hashtbl.randomize ();
  let r time ev = { Trace.time; ev } in
  let sends =
    List.concat_map
      (fun (src, dst) ->
        [ r 0.0 (Trace.Squeue_send { src; dst; seq = 0 });
          r 0.0 (Trace.Squeue_send { src; dst; seq = 1 }) ])
      [ (3, 1); (0, 2); (2, 0); (1, 3); (0, 1); (3, 2); (1, 0); (2, 3) ]
  in
  let windows =
    List.map
      (fun w ->
        r 1.0 (Trace.Query_window { w; site = 4 + (w mod 3); point = 0; missing = 0; keys = [] }))
      [ 9; 2; 14; 5; 0; 11 ]
  in
  let crashes =
    List.concat_map
      (fun site ->
        [ r 2.0 (Trace.Crash { site });
          r 2.0
            (Trace.Volatile_dropped
               { site; buffered = 0; queries_failed = 0; updates_rejected = 0; log = 3 });
          r 3.0 (Trace.Recover { site }) ])
      [ 2; 0; 3; 1 ]
  in
  let records = sends @ windows @ crashes @ [ r 4.0 (Trace.Converged { ok = true }) ] in
  let audit () =
    List.map
      (fun (v : Audit.violation) -> (v.Audit.v_invariant, v.Audit.v_detail))
      (Audit.audit_records records).Audit.violations
  in
  let first = audit () in
  for _ = 2 to 5 do
    Alcotest.(check (list (pair string string))) "same verdicts" first (audit ())
  done;
  let details invariant =
    List.filter_map (fun (i, d) -> if i = invariant then Some d else None) first
  in
  Alcotest.(check (list string))
    "channels in order"
    (List.map
       (fun (src, dst) -> Printf.sprintf "channel %d->%d delivered 0 of 2 journaled" src dst)
       [ (0, 1); (0, 2); (1, 0); (1, 3); (2, 0); (2, 3); (3, 1); (3, 2) ])
    (details "squeue-undelivered");
  Alcotest.(check (list string))
    "windows in order"
    (List.map
       (fun w -> Printf.sprintf "query window %d at site %d never closed" w (4 + (w mod 3)))
       [ 0; 2; 5; 9; 11; 14 ])
    (details "window-never-closed");
  Alcotest.(check (list string))
    "sites in order"
    (List.map
       (fun site -> Printf.sprintf "site %d recovered but never replayed its 3-action log" site)
       [ 0; 1; 2; 3 ])
    (details "recovery-without-replay")

(* --- certificate JSON round-trip --- *)

let test_certificate_roundtrip () =
  let records, clean = run_audited ~seed:3 "ORDUP" in
  let dirty = Audit.audit_records ~label:"dirty" (Audit.Mutate.overcharge records) in
  List.iter
    (fun (r : Audit.report) ->
      match Audit.report_of_json (Audit.report_to_json r) with
      | Error m -> Alcotest.failf "%s did not parse back: %s" r.Audit.label m
      | Ok r' ->
          checks (r.Audit.label ^ " round-trips")
            (Audit.report_to_json r) (Audit.report_to_json r'))
    [ clean; dirty ];
  (match Audit.report_of_json "{\"schema\":\"other/1\"}" with
  | Ok _ -> Alcotest.fail "accepted a foreign schema"
  | Error _ -> ())

(* --- paper §2.1: overlap reconstructed from trace events --- *)

(* L1 = R1(a) W1(b) W2(b) R3(a) W2(a) R3(b).  U1 completes before the
   query ET3 starts; U2 interleaves it.  In trace vocabulary: U1 is
   applied (ticket 1) before Q3's window opens at point 1, U2's apply
   (ticket 2, keys overlapping Q3's read set) lands inside the window,
   and the query is served charged 1 — exactly |overlap(Q3)| = |{U2}|. *)
let paper_log = "R1(a) W1(b) W2(b) R3(a) W2(a) R3(b)"

let paper_records ~charged =
  let r time ev = { Trace.time; ev } in
  [
    r 0.0 (Trace.Mset_enqueued { et = 1; origin = 0; n_ops = 2; keys = [ "a"; "b" ] });
    r 1.0 (Trace.Mset_applied { et = 1; site = 0; n_ops = 2; order = Some 1 });
    r 2.0 (Trace.Query_begin { q = 0; site = 0; n_keys = 2; epsilon = Some 5 });
    r 2.0
      (Trace.Query_window
         { w = 0; site = 0; point = 1; missing = 0; keys = [ "a"; "b" ] });
    r 3.0 (Trace.Mset_enqueued { et = 2; origin = 1; n_ops = 2; keys = [ "b"; "a" ] });
    r 4.0 (Trace.Mset_applied { et = 2; site = 0; n_ops = 2; order = Some 2 });
    r 5.0 (Trace.Query_window_closed { w = 0; site = 0; charged; outcome = `Ok });
    r 5.0
      (Trace.Query_served
         {
           q = 0;
           site = 0;
           charged;
           forced = 0;
           epsilon = Some 5;
           consistent_path = false;
           latency = 3.0;
         });
    r 6.0 (Trace.Converged { ok = true });
  ]

let test_paper_overlap_example () =
  let bound =
    List.length (Esr_check.overlap (Hist.of_string paper_log) ~query:3)
  in
  checki "ESR-check bound for Q3" 1 bound;
  (* Charging exactly the overlap certifies... *)
  let report = Audit.audit_records ~label:"L1" (paper_records ~charged:bound) in
  checkb "charge = overlap certifies" true (Audit.ok report);
  checki "one window, reconstructed exactly" 1
    report.Audit.summary.Audit.s_windows_exact;
  (match report.Audit.ledger with
  | [ e ] ->
      checki "ledger charge" bound e.Audit.l_charged;
      Alcotest.(check (option int))
        "ledger reconstruction" (Some bound) e.Audit.l_reconstructed
  | l -> Alcotest.failf "expected 1 ledger entry, got %d" (List.length l));
  (* ...and any other charge is caught as an overlap mismatch. *)
  let report = Audit.audit_records ~label:"L1-bad" (paper_records ~charged:0) in
  checkb "charge <> overlap flagged" false (Audit.ok report);
  checks "mismatch invariant" "charge-overlap-mismatch"
    (List.hd report.Audit.violations).Audit.v_invariant

(* --- partial traces audit in relaxed mode --- *)

let test_relaxed_partial () =
  let records, _ = run_audited ~seed:5 "COMMU" in
  let truncated =
    { Trace.time = 0.0; ev = Trace.Trace_meta { dropped = 123 } } :: records
  in
  let report = Audit.audit_records ~label:"partial" truncated in
  checkb "still certifies" true (Audit.ok report);
  checkb "marked partial" true (Audit.partial report);
  checki "dropped count surfaced" 123 report.Audit.summary.Audit.s_dropped

(* --- the headline property: every method audits clean --- *)

let methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

let prop_nemesis_audits_clean name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s audits clean under any all-clear nemesis" name)
    ~count:6
    QCheck.(pair (int_range 0 9999) bool)
    (fun (seed, sharded) ->
      let sharding =
        if sharded then Some (Sharding.create ~policy:Sharding.Ring ~sites:4 ())
        else None
      in
      let _, report = run_audited ?sharding ~seed name in
      Audit.ok report
      || QCheck.Test.fail_reportf "seed %d (%s placement): %s" seed
           (if sharded then "ring" else "full")
           (pp_violations report))

let () =
  Alcotest.run "esr_audit"
    [
      ( "certify",
        [
          Alcotest.test_case "live ORDUP nemesis run certifies" `Quick
            test_live_run_certifies;
          Alcotest.test_case "partial trace relaxes, still certifies" `Quick
            test_relaxed_partial;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "each corruption trips its invariant" `Quick
            test_mutations;
          Alcotest.test_case "delivery watermark flags duplicates" `Quick
            test_delivery_watermark;
          Alcotest.test_case "delivery state stays bounded" `Quick
            test_delivery_memory_bounded;
          Alcotest.test_case "squeue events feed without allocating" `Quick
            test_delivery_feeds_without_allocating;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "JSON round-trip" `Quick
            test_certificate_roundtrip;
        ] );
      ( "paper",
        [
          Alcotest.test_case "§2.1 overlap example reconstructs" `Quick
            test_paper_overlap_example;
        ] );
      ( "audit-property",
        List.map
          (fun name -> QCheck_alcotest.to_alcotest (prop_nemesis_audits_clean name))
          methods );
      (* Last: [Hashtbl.randomize] seeds every table created after it. *)
      ( "verdict order",
        [
          Alcotest.test_case "end verdicts sorted under random hashing" `Quick
            test_end_verdicts_sorted;
        ] );
    ]
