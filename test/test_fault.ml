(* Fault layer: schedule DSL, nemesis generator, the network/transport
   fault semantics they drive, and the crash-recovery contract of every
   replica-control method (all-clear faults => settle + converge). *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Value = Esr_store.Value
module Epsilon = Esr_core.Epsilon
module Squeue = Esr_squeue.Squeue
module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Replica = Esr_replica.Replica
module Registry = Esr_replica.Registry
module Schedule = Esr_fault.Schedule
module Nemesis = Esr_fault.Nemesis

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Drain the system; a run that cannot drain fails with the reason. *)
let expect_drained h =
  match Harness.settle_result h with
  | Harness.Drained -> ()
  | Harness.Stuck r -> Alcotest.fail ("stuck: " ^ Harness.stuck_reason_to_string r)

(* --- schedule DSL --- *)

let test_spec_roundtrip () =
  let spec = "crash@400:2;recover@900:2;partition@1000:0 1|2 3;heal@1500" in
  match Schedule.of_spec spec with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check string) "round-trips" spec (Schedule.to_spec s);
      checkb "all clear" true (Schedule.all_clear s);
      Alcotest.(check (float 1e-9)) "clear time" 1500.0 (Schedule.clear_time s);
      checkb "validates on 4 sites" true
        (Result.is_ok (Schedule.validate ~sites:4 s))

let test_spec_rejects_garbage () =
  List.iter
    (fun spec -> checkb spec true (Result.is_error (Schedule.of_spec spec)))
    [ "crash@"; "crash@x:1"; "explode@10:1"; "crash@10"; "partition@5" ]

let test_validate_rejects_out_of_range () =
  let s = Schedule.make [ { Schedule.at = 10.0; action = Schedule.Crash 5 } ] in
  checkb "site 5 of 3" true (Result.is_error (Schedule.validate ~sites:3 s));
  checkb "site 5 of 6" true (Result.is_ok (Schedule.validate ~sites:6 s))

let test_all_clear_negative () =
  let s = Schedule.make [ { Schedule.at = 10.0; action = Schedule.Crash 1 } ] in
  checkb "unrecovered crash" false (Schedule.all_clear s);
  let s =
    Schedule.make
      [ { Schedule.at = 10.0; action = Schedule.Partition [ [ 0 ]; [ 1 ] ] } ]
  in
  checkb "unhealed partition" false (Schedule.all_clear s)

(* [Schedule.faulty]: a fault counts from its step's time on, up to the
   step that clears it. *)
let test_faulty_windows () =
  let spec s = Result.get_ok (Schedule.of_spec s) in
  let expect name s points =
    List.iter
      (fun (t, want) ->
        checkb (Printf.sprintf "%s at %g" name t) want (Schedule.faulty s t))
      points
  in
  expect "E13"
    (spec "crash@600:1;recover@1400:1;partition@1800:0 1|2 3;heal@2600")
    [
      (599.0, false); (600.0, true); (1_399.0, true); (1_400.0, false);
      (1_799.0, false); (1_800.0, true); (2_599.0, true); (2_600.0, false);
    ];
  expect "unrecovered crash" (spec "crash@100:2")
    [ (99.0, false); (100.0, true); (1e9, true) ];
  expect "crash outlasting a partition"
    (spec "crash@100:0;partition@200:1|2;heal@300;recover@400:0")
    [ (99.0, false); (150.0, true); (250.0, true); (350.0, true); (400.0, false) ];
  expect "partition outlasting a crash"
    (spec "partition@100:1|2;crash@200:0;recover@300:0;heal@400")
    [ (99.0, false); (250.0, true); (350.0, true); (400.0, false) ];
  expect "empty" Schedule.empty [ (0.0, false); (1e9, false) ]

(* --- nemesis generator --- *)

let test_nemesis_deterministic () =
  let gen () = Nemesis.generate ~seed:11 ~sites:4 ~duration:1000.0 () in
  Alcotest.(check string)
    "same seed, same schedule"
    (Schedule.to_spec (gen ()))
    (Schedule.to_spec (gen ()))

let test_nemesis_always_all_clear () =
  for seed = 1 to 30 do
    let s = Nemesis.generate ~seed ~sites:4 ~duration:1000.0 () in
    checkb (Printf.sprintf "seed %d all clear" seed) true (Schedule.all_clear s);
    checkb
      (Printf.sprintf "seed %d valid" seed)
      true
      (Result.is_ok (Schedule.validate ~sites:4 s));
    checkb
      (Printf.sprintf "seed %d within duration" seed)
      true
      (Schedule.clear_time s <= 1000.0)
  done

(* --- network: partitions cut messages already in flight --- *)

let quiet_net ?(sites = 2) ?(latency = Dist.Constant 20.0) engine =
  let config =
    { Net.latency; drop_probability = 0.0; duplicate_probability = 0.0 }
  in
  Net.create ~config engine ~sites ~prng:(Prng.create 5)

let test_partition_cuts_inflight () =
  let engine = Engine.create () in
  let net = quiet_net engine in
  let delivered = ref false in
  let p = Net.port net (fun ~src:_ ~dst:_ _ -> delivered := true) in
  Net.post net p ~src:0 ~dst:1 0;
  (* The message is in flight (arrives at t=20); the partition fires
     first, so the arrival-time re-check must cut it off. *)
  ignore
    (Engine.schedule_at engine ~time:5.0 (fun () ->
         Net.partition net [ [ 0 ]; [ 1 ] ]));
  Engine.run engine;
  checkb "not delivered across the split" false !delivered;
  checki "counted as blocked" 1 (Net.counters net).Net.blocked_partition

let test_crash_drops_inflight_arrival () =
  let engine = Engine.create () in
  let net = quiet_net engine in
  let delivered = ref false in
  let p = Net.port net (fun ~src:_ ~dst:_ _ -> delivered := true) in
  Net.post net p ~src:0 ~dst:1 0;
  ignore (Engine.schedule_at engine ~time:5.0 (fun () -> Net.crash net 1));
  Engine.run engine;
  checkb "not delivered to the crashed site" false !delivered;
  checki "counted as crashed dst" 1 (Net.counters net).Net.crashed_dst

(* --- stable queues: retry backoff + recovery kick --- *)

(* One message into a long crash window.  Fixed-interval retries hammer
   the dead site; exponential backoff sends far fewer.  Either way the
   recovery hook kicks an immediate retransmission, so the message is
   delivered exactly once shortly after the site returns. *)
let retx_through_crash ~backoff () =
  let engine = Engine.create () in
  let net = quiet_net engine in
  let got = ref 0 in
  let q =
    Squeue.create ?backoff ~retry_interval:10.0 net
      ~handler:(fun ~site:_ ~src:_ () -> incr got)
  in
  Net.crash net 1;
  Squeue.send q ~src:0 ~dst:1 ();
  Engine.run ~until:4000.0 engine;
  checki "nothing delivered while down" 0 !got;
  Net.recover net 1;
  Engine.run ~until:4100.0 engine;
  checki "delivered once after recovery" 1 !got;
  (Squeue.counters q).Squeue.retransmissions

let test_backoff_reduces_retransmissions () =
  let fixed = retx_through_crash ~backoff:None () in
  let eased =
    retx_through_crash ~backoff:(Some Squeue.default_backoff) ()
  in
  checkb
    (Printf.sprintf "backoff retransmits less (%d < %d)" eased fixed)
    true
    (eased < fixed / 3)

(* --- per-method crash-recovery contract --- *)

let methods = Registry.names

(* QUORUM takes single-key blind Sets only; RITU rejects read-dependent
   ops.  Everyone accepts both shapes used here. *)
let intents_for name i =
  let key = Printf.sprintf "k%d" (i mod 4) in
  match name with
  | "RITU" | "QUORUM" -> [ Intf.Set (key, Value.Int (100 + i)) ]
  | _ -> [ Intf.Add (key, 1 + (i mod 5)) ]

let quiet_harness ?obs ?(sites = 4) ?(seed = 3) name =
  let net_config =
    {
      Net.latency = Dist.Uniform (5.0, 25.0);
      drop_probability = 0.0;
      duplicate_probability = 0.0;
    }
  in
  Harness.create ~net_config ~seed ?obs ~sites ~method_name:name ()

(* Updates every [gap] ms from rotating origins for the next [until] ms
   of virtual time; origins down at submission time are simply rejected. *)
let schedule_updates h ~sites ~name ~gap ~until =
  let engine = Harness.engine h in
  let base = Harness.now h in
  let i = ref 0 in
  let t = ref gap in
  while !t < until do
    let n = !i in
    ignore
      (Engine.schedule_at engine ~time:(base +. !t) (fun () ->
           Harness.submit_update h ~origin:(n mod sites) (intents_for name n)
             (fun _ -> ())));
    incr i;
    t := !t +. gap
  done

let drained = function
  | Harness.Drained -> true
  | Harness.Stuck reason ->
      Alcotest.failf "stuck: %s" (Harness.stuck_reason_to_string reason)

let test_crash_recover_converges name () =
  let obs = Obs.create ~tracing:true () in
  let records = Tap.collect obs.Obs.trace in
  let sites = 4 in
  let h = quiet_harness ~obs ~sites name in
  let schedule =
    Schedule.make
      [
        { Schedule.at = 100.0; action = Schedule.Crash 1 };
        { Schedule.at = 450.0; action = Schedule.Recover 1 };
      ]
  in
  let outcome =
    Harness.run_with_faults h ~schedule ~workload:(fun h ->
        schedule_updates h ~sites ~name ~gap:23.0 ~until:600.0)
  in
  checkb "drained" true (drained outcome);
  checkb "converged" true (Harness.converged h);
  let wiped = ref 0 and replayed = ref 0 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.ev with
      | Trace.Volatile_dropped { site; _ } ->
          checki "wipe at the crashed site" 1 site;
          incr wiped
      | Trace.Recovery_replay { site; _ } ->
          checki "replay at the crashed site" 1 site;
          incr replayed
      | _ -> ())
    (records ());
  checki "one volatile wipe" 1 !wiped;
  checki "one recovery replay" 1 !replayed

let test_double_crash_recover_idempotent name () =
  let sites = 3 in
  let h = quiet_harness ~sites name in
  let system = Harness.system h in
  let net = Harness.net h in
  schedule_updates h ~sites ~name ~gap:17.0 ~until:200.0;
  Harness.run_for h 250.0;
  Net.crash net 2;
  Replica.crash system ~site:2;
  Replica.crash system ~site:2;
  (* second call must be a no-op *)
  Harness.run_for h 100.0;
  Net.recover net 2;
  Replica.recover system ~site:2;
  Replica.recover system ~site:2;
  schedule_updates h ~sites ~name ~gap:13.0 ~until:80.0;
  expect_drained h;
  checkb "converged" true (Harness.converged h)

let test_crashed_site_degrades_gracefully name () =
  let sites = 3 in
  let h = quiet_harness ~sites name in
  let system = Harness.system h in
  schedule_updates h ~sites ~name ~gap:19.0 ~until:150.0;
  Harness.run_for h 400.0;
  Net.crash (Harness.net h) 2;
  Replica.crash system ~site:2;
  (* A query at the crashed site answers immediately from the last local
     image, flagged as off the consistent path. *)
  let served = ref 0 in
  Harness.submit_query h ~site:2 ~keys:[ "k0"; "k1" ]
    ~epsilon:(Epsilon.Limit 0) (fun outcome ->
      incr served;
      checkb "degraded" false outcome.Intf.consistent_path;
      checki "free of charge" 0 outcome.Intf.charged);
  checki "query answered synchronously" 1 !served;
  (* An update originating at the crashed site is rejected outright. *)
  let rejected = ref 0 in
  Harness.submit_update h ~origin:2 (intents_for name 0) (function
    | Intf.Rejected _ -> incr rejected
    | Intf.Committed _ -> Alcotest.fail "committed at a crashed site");
  checki "update rejected" 1 !rejected;
  (* The rest of the system keeps going and still drains. *)
  Net.recover (Harness.net h) 2;
  Replica.recover system ~site:2;
  expect_drained h;
  checkb "converged" true (Harness.converged h)

(* --- the headline property: all-clear nemesis => settle + converge --- *)

let prop_nemesis_converges name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s survives any all-clear nemesis" name)
    ~count:12
    QCheck.(int_range 0 9999)
    (fun seed ->
      let sites = 4 in
      let schedule = Nemesis.generate ~seed ~sites ~duration:500.0 () in
      let h = quiet_harness ~seed:(seed + 1) ~sites name in
      let outcome =
        Harness.run_with_faults h ~schedule ~workload:(fun h ->
            schedule_updates h ~sites ~name ~gap:29.0 ~until:600.0)
      in
      (match outcome with
      | Harness.Drained -> ()
      | Harness.Stuck reason ->
          QCheck.Test.fail_reportf "seed %d stuck: %s (schedule %s)" seed
            (Harness.stuck_reason_to_string reason)
            (Schedule.to_spec schedule));
      Harness.converged h
      || QCheck.Test.fail_reportf "seed %d diverged (schedule %s)" seed
           (Schedule.to_spec schedule))

let per_method mk = List.map (fun name -> mk name) methods

let () =
  Alcotest.run "esr_fault"
    [
      ( "schedule",
        [
          Alcotest.test_case "DSL round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "validate range" `Quick
            test_validate_rejects_out_of_range;
          Alcotest.test_case "all-clear detection" `Quick test_all_clear_negative;
          Alcotest.test_case "fault windows" `Quick test_faulty_windows;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "deterministic" `Quick test_nemesis_deterministic;
          Alcotest.test_case "always all-clear" `Quick
            test_nemesis_always_all_clear;
        ] );
      ( "net",
        [
          Alcotest.test_case "partition cuts in-flight" `Quick
            test_partition_cuts_inflight;
          Alcotest.test_case "crash drops at arrival" `Quick
            test_crash_drops_inflight_arrival;
        ] );
      ( "squeue",
        [
          Alcotest.test_case "backoff + recovery kick" `Quick
            test_backoff_reduces_retransmissions;
        ] );
      ( "crash-recovery",
        per_method (fun name ->
            Alcotest.test_case
              (name ^ " crash mid-stream converges")
              `Quick
              (test_crash_recover_converges name)) );
      ( "idempotence",
        per_method (fun name ->
            Alcotest.test_case
              (name ^ " double crash/recover")
              `Quick
              (test_double_crash_recover_idempotent name)) );
      ( "degraded",
        per_method (fun name ->
            Alcotest.test_case
              (name ^ " crashed site degrades")
              `Quick
              (test_crashed_site_degrades_gracefully name)) );
      ( "nemesis-property",
        per_method (fun name ->
            QCheck_alcotest.to_alcotest (prop_nemesis_converges name)) );
    ]
