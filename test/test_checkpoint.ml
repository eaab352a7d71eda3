(* Asynchronous checkpointing (DESIGN.md §12): cut mechanics and
   retention, WAL sizing/high-water, stable-queue dedup GC, the
   crash-at-cut schedule guard, and the headline equivalence property —
   for every method and any seeded nemesis, recovery from checkpoint +
   tail converges to the same final stores as full-log replay. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Value = Esr_store.Value
module Oplog = Esr_core.Oplog
module Op = Esr_store.Op
module Squeue = Esr_squeue.Squeue
module Metrics = Esr_obs.Metrics
module Obs = Esr_obs.Obs
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Replica = Esr_replica.Replica
module Registry = Esr_replica.Registry
module Recovery = Esr_replica.Recovery
module Checkpoint = Esr_replica.Checkpoint
module Schedule = Esr_fault.Schedule
module Nemesis = Esr_fault.Nemesis

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Drain the system; a run that cannot drain fails with the reason. *)
let expect_drained h =
  match Harness.settle_result h with
  | Harness.Drained -> ()
  | Harness.Stuck r -> Alcotest.fail ("stuck: " ^ Harness.stuck_reason_to_string r)

(* --- cut mechanics --- *)

let test_create_validates () =
  List.iter
    (fun (interval, retain) ->
      checkb
        (Printf.sprintf "rejects interval %g retain %d" interval retain)
        true
        (try
           ignore
             (Checkpoint.create ~sites:2 { Checkpoint.interval; retain });
           false
         with Invalid_argument _ -> true))
    [ (0.0, 2); (-5.0, 2); (Float.nan, 2); (Float.infinity, 2); (10.0, 0) ]

let test_cut_mechanics () =
  let engine = Engine.create () in
  let c = Checkpoint.create ~sites:2 { Checkpoint.interval = 10.0; retain = 2 } in
  checkb "no base before the first cut" true (Checkpoint.base c ~site:0 = None);
  let store = Store.create () in
  Store.set store "a" (Value.Int 1);
  let log = Oplog.create (Store.keyspace store) in
  ignore (Oplog.append_key log ~et:1 ~key:"a" (Op.Write (Value.Int 0)));
  ignore (Oplog.append_key log ~et:2 ~key:"a" (Op.Write (Value.Int 1)));
  Checkpoint.cut c ~engine ~site:0 ~store ~log ~reclaimed:3 ();
  checki "the site's log is empty after the cut" 0 (Oplog.length log);
  checki "one cut" 1 (Checkpoint.cuts c ~site:0);
  checki "folded both log entries" 2 (Checkpoint.truncated_log c ~site:0);
  checki "accounted the reclaimed journal records" 3
    (Checkpoint.truncated_journal c ~site:0);
  checki "baseline is the newest snapshot's log position" 2
    (Checkpoint.baseline c ~site:0);
  checki "other site untouched" 0 (Checkpoint.cuts c ~site:1);
  (* The snapshot is a private copy: mutating the live store afterwards
     must not leak into the recovery base, and the returned base is
     itself a fresh copy each time. *)
  Store.set store "a" (Value.Int 99);
  (match Checkpoint.base c ~site:0 with
  | None -> Alcotest.fail "no base after a cut"
  | Some b ->
      checkb "snapshot isolated from the live store" true
        (Store.get b "a" = Value.Int 1);
      Store.set b "a" (Value.Int 7));
  match Checkpoint.base c ~site:0 with
  | Some b2 ->
      checkb "base re-copies the pristine image" true
        (Store.get b2 "a" = Value.Int 1)
  | None -> Alcotest.fail "no base after a cut"

let test_retention_and_tail_stats () =
  let engine = Engine.create () in
  let c = Checkpoint.create ~sites:1 { Checkpoint.interval = 10.0; retain = 2 } in
  let store = Store.create () in
  let log = Oplog.create (Store.keyspace store) in
  for i = 1 to 3 do
    Store.set store "a" (Value.Int i);
    ignore (Oplog.append_key log ~et:i ~key:"a" (Op.Write (Value.Int i)));
    Checkpoint.cut c ~engine ~site:0 ~store ~log ~reclaimed:0 ();
    checki "the site's log is empty after the cut" 0 (Oplog.length log)
  done;
  checki "3 cuts" 3 (Checkpoint.cuts c ~site:0);
  checki "retention trims to 2" 2 (Checkpoint.retained c ~site:0);
  checki "baseline accumulates" 3 (Checkpoint.baseline c ~site:0);
  (match Checkpoint.base c ~site:0 with
  | Some b ->
      checkb "newest snapshot wins" true (Store.get b "a" = Value.Int 3)
  | None -> Alcotest.fail "no base");
  Checkpoint.note_tail_replay c ~site:0 ~len:5;
  Checkpoint.note_tail_replay c ~site:0 ~len:2;
  checki "tail replays" 2 (Checkpoint.tail_replays c ~site:0);
  checki "last tail" 2 (Checkpoint.last_tail c ~site:0);
  checki "max tail" 5 (Checkpoint.max_tail c ~site:0)

(* --- WAL: high-water tracking --- *)

let test_wal_high_water () =
  let wal = Recovery.Wal.create ~sites:2 () in
  for i = 0 to 9 do
    Recovery.Wal.append wal ~site:0 ~key:i (Printf.sprintf "m%d" i)
  done;
  checki "10 live records" 10 (Recovery.Wal.size wal ~site:0);
  checki "high water tracks the peak" 10 (Recovery.Wal.high_water wal ~site:0);
  for i = 0 to 7 do
    Recovery.Wal.consume wal ~site:0 ~key:i
  done;
  checki "2 left after consumption" 2 (Recovery.Wal.size wal ~site:0);
  checki "high water is sticky" 10 (Recovery.Wal.high_water wal ~site:0);
  checki "per-site isolation" 0 (Recovery.Wal.high_water wal ~site:1)

(* --- stable queues: dedup-journal GC preserves exactly-once --- *)

let duplicating_net engine =
  let config =
    {
      Net.latency = Dist.Uniform (5.0, 25.0);
      drop_probability = 0.0;
      duplicate_probability = 0.3;
    }
  in
  Net.create ~config engine ~sites:2 ~prng:(Prng.create 7)

let test_squeue_gc_exactly_once () =
  let engine = Engine.create () in
  let net = duplicating_net engine in
  let got = ref 0 in
  let q =
    Squeue.create ~mode:Squeue.Unordered net ~handler:(fun ~site:_ ~src:_ () ->
        incr got)
  in
  for _ = 1 to 20 do
    Squeue.send q ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  checki "first batch delivered exactly once each" 20 !got;
  let depth = Squeue.dedup_depth q ~site:1 in
  checkb "dedup journal grew" true (depth > 0);
  let reclaimed = Squeue.gc_site q ~site:1 in
  checki "GC reclaims the whole delivered prefix" depth reclaimed;
  checki "dedup journal compacted" 0 (Squeue.dedup_depth q ~site:1);
  (* Exactly-once must survive the compaction: the watermark suppresses
     retransmissions below it just as per-seq records used to. *)
  for _ = 1 to 20 do
    Squeue.send q ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  checki "second batch still exactly once" 40 !got;
  checkb "duplicates were actually suppressed" true
    ((Squeue.counters q).Squeue.duplicates_suppressed > 0)

let test_squeue_gc_fifo_noop () =
  let engine = Engine.create () in
  let net = duplicating_net engine in
  let q =
    Squeue.create ~mode:Squeue.Fifo net ~handler:(fun ~site:_ ~src:_ () -> ())
  in
  for _ = 1 to 10 do
    Squeue.send q ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  checki "fifo retains nothing per-seq" 0 (Squeue.gc_site q ~site:1)

(* --- schedule guard: no crash at the exact time of a cut --- *)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_validate_rejects_crash_on_cut () =
  let s =
    Schedule.make
      [
        { Schedule.at = 300.0; action = Schedule.Crash 1 };
        { Schedule.at = 450.0; action = Schedule.Recover 1 };
      ]
  in
  checkb "fine without checkpointing" true
    (Result.is_ok (Schedule.validate ~sites:4 s));
  (match Schedule.validate ~checkpoint:100.0 ~sites:4 s with
  | Ok () -> Alcotest.fail "crash at a cut time must be rejected"
  | Error m ->
      checkb "error names the collision" true (contains_sub m "coincides"));
  checkb "fine off the cut grid" true
    (Result.is_ok (Schedule.validate ~checkpoint:70.0 ~sites:4 s));
  (* Only crashes are constrained: a recover landing on a cut is fine. *)
  let r =
    Schedule.make
      [
        { Schedule.at = 150.0; action = Schedule.Crash 0 };
        { Schedule.at = 200.0; action = Schedule.Recover 0 };
      ]
  in
  checkb "recover on a cut accepted" true
    (Result.is_ok (Schedule.validate ~checkpoint:100.0 ~sites:4 r))

(* --- harness wiring: gauges appear only when checkpointing is on --- *)

let quiet_harness ?config ?checkpoint ?obs ?(sites = 4) ?(seed = 3) name =
  let net_config =
    {
      Net.latency = Dist.Uniform (5.0, 25.0);
      drop_probability = 0.0;
      duplicate_probability = 0.0;
    }
  in
  Harness.create ?config ~net_config ~seed ?obs ?checkpoint ~sites
    ~method_name:name ()

let ckpt_gauges h =
  List.filter (fun e -> e.Metrics.group = "ckpt") (Harness.stats h)

let test_gauges_conditional () =
  let off = quiet_harness "ORDUP" in
  checki "no ckpt gauges by default" 0 (List.length (ckpt_gauges off));
  checkb "no checkpoint state by default" true
    ((Harness.env off).Intf.checkpoint = None);
  let on =
    quiet_harness ~checkpoint:{ Checkpoint.interval = 50.0; retain = 2 } "ORDUP"
  in
  checkb "ckpt gauges registered when enabled" true
    (List.length (ckpt_gauges on) > 0)

(* --- per-method workload plumbing (mirrors test_fault) --- *)

(* Every method at its default config, plus the modes whose recovery
   takes its own branch: RITU's timestamp-aware multiversion rebuild and
   ORDUP's Lamport re-ingest.  (label, method, config). *)
let variants =
  List.map (fun name -> (name, name, Intf.default_config)) Registry.names
  @ [
      ( "RITU multi",
        "RITU",
        { Intf.default_config with Intf.ritu_mode = `Multi } );
      ( "ORDUP lamport",
        "ORDUP",
        { Intf.default_config with Intf.ordup_ordering = `Lamport } );
    ]

let intents_for name i =
  let key = Printf.sprintf "k%d" (i mod 4) in
  match name with
  | "RITU" | "QUORUM" -> [ Intf.Set (key, Value.Int (100 + i)) ]
  | _ -> [ Intf.Add (key, 1 + (i mod 5)) ]

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

(* --- double crash during the checkpoint window: idempotent recovery --- *)

let test_double_crash_between_cuts ~config name () =
  let sites = 3 in
  let h =
    quiet_harness ~config ~sites
      ~checkpoint:{ Checkpoint.interval = 40.0; retain = 2 }
      name
  in
  Harness.arm_checkpoints h ~until:400.0;
  let system = Harness.system h in
  let net = Harness.net h in
  schedule_updates h ~sites ~name ~gap:17.0 ~until:200.0;
  Harness.run_for h 250.0;
  let c =
    match (Harness.env h).Intf.checkpoint with
    | Some c -> c
    | None -> Alcotest.fail "checkpoint state missing"
  in
  checkb "cuts were taken" true (Checkpoint.cuts c ~site:2 > 0);
  (* Two crash/recover rounds with no traffic in between: both
     recoveries must start from the same pristine snapshot copy (the
     base re-copies), so the second replay is as good as the first. *)
  Net.crash net 2;
  Replica.crash system ~site:2;
  Net.recover net 2;
  Replica.recover system ~site:2;
  Net.crash net 2;
  Replica.crash system ~site:2;
  Net.recover net 2;
  Replica.recover system ~site:2;
  checki "both recoveries replayed a tail" 2 (Checkpoint.tail_replays c ~site:2);
  schedule_updates h ~sites ~name ~gap:13.0 ~until:80.0;
  expect_drained h;
  checkb "converged" true (Harness.converged h)

(* --- the headline property: checkpoint + tail ≡ full-log replay --- *)

let prop_checkpoint_equiv ~label ~config name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: checkpoint+tail recovery matches full-log replay"
         label)
    ~count:8
    QCheck.(int_range 0 9999)
    (fun seed ->
      let sites = 4 in
      let schedule = Nemesis.generate ~seed ~sites ~duration:500.0 () in
      let run ?checkpoint () =
        let h =
          quiet_harness ~config ~seed:(seed + 1) ?checkpoint ~sites name
        in
        if checkpoint <> None then Harness.arm_checkpoints h ~until:700.0;
        (match
           Harness.run_with_faults h ~schedule ~workload:(fun h ->
               schedule_updates h ~sites ~name ~gap:29.0 ~until:600.0)
         with
        | Harness.Drained -> ()
        | Harness.Stuck reason ->
            QCheck.Test.fail_reportf "seed %d stuck (%s): %s" seed
              (if checkpoint = None then "full-log" else "checkpointed")
              (Harness.stuck_reason_to_string reason));
        h
      in
      let h_off = run () in
      let h_on =
        run ~checkpoint:{ Checkpoint.interval = 73.0; retain = 2 } ()
      in
      (Harness.converged h_on
      || QCheck.Test.fail_reportf "seed %d: checkpointed run diverged" seed)
      && List.for_all
           (fun i ->
             let mv h = Replica.mvstore (Harness.system h) ~site:i in
             (Store.equal (Harness.store h_off ~site:i)
                (Harness.store h_on ~site:i)
             && Option.equal Mvstore.equal (mv h_off) (mv h_on))
             || QCheck.Test.fail_reportf
                  "seed %d: site %d differs from the full-log run (schedule \
                   %s)"
                  seed i
                  (Schedule.to_spec schedule))
           (List.init sites Fun.id))

let per_variant mk =
  List.map (fun (label, name, config) -> mk ~label ~config name) variants

let () =
  Alcotest.run "esr_checkpoint"
    [
      ( "cut",
        [
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "cut mechanics" `Quick test_cut_mechanics;
          Alcotest.test_case "retention + tail stats" `Quick
            test_retention_and_tail_stats;
        ] );
      ( "wal",
        [
          Alcotest.test_case "high water" `Quick test_wal_high_water;
        ] );
      ( "squeue-gc",
        [
          Alcotest.test_case "exactly-once across GC" `Quick
            test_squeue_gc_exactly_once;
          Alcotest.test_case "fifo no-op" `Quick test_squeue_gc_fifo_noop;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "crash-at-cut rejected" `Quick
            test_validate_rejects_crash_on_cut;
        ] );
      ( "harness",
        [
          Alcotest.test_case "gauges conditional" `Quick test_gauges_conditional;
        ] );
      ( "double-crash",
        per_variant (fun ~label ~config name ->
            Alcotest.test_case
              (label ^ " double crash between cuts")
              `Quick
              (test_double_crash_between_cuts ~config name)) );
      ( "equivalence",
        per_variant (fun ~label ~config name ->
            QCheck_alcotest.to_alcotest
              (prop_checkpoint_equiv ~label ~config name)) );
    ]
