(* esrsim — command-line front end to the epsilon-serializability replica
   control simulator.

     esrsim methods                      list replica-control methods (Table 1)
     esrsim run --method COMMU ...       run one workload, print the summary
     esrsim check "R1(a) W1(b) ..."      ESR-check a history in paper notation
     esrsim overlap "..." --query 3      overlap of one query ET

   The paper's tables and the experiments run from bench/main.exe. *)

open Cmdliner
module Stats = Esr_util.Stats
module Tablefmt = Esr_util.Tablefmt
module Json = Esr_util.Json
module Obs = Esr_obs.Obs
module Prof = Esr_obs.Prof
module Trace = Esr_obs.Trace
module Metrics = Esr_obs.Metrics
module Series = Esr_obs.Series
module Spans = Esr_obs.Spans
module Openmetrics = Esr_obs.Openmetrics
module Report = Esr_obs.Report
module Audit = Esr_obs.Audit
module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Epsilon = Esr_core.Epsilon
module Hist = Esr_core.Hist
module Esr_check = Esr_core.Esr_check
module Intf = Esr_replica.Intf
module Registry = Esr_replica.Registry
module Spec = Esr_workload.Spec
module Scenario = Esr_workload.Scenario
module Schedule = Esr_fault.Schedule
module Nemesis = Esr_fault.Nemesis

(* --- methods --- *)

let methods_cmd =
  let doc = "List the replica-control methods and their Table 1 characteristics." in
  let run () =
    let t =
      Tablefmt.create ~title:"Replica-control methods"
        ~headers:[ "Method"; "Family"; "Restriction"; "Async propagation"; "Sorting time" ]
    in
    List.iter
      (fun (m : Intf.meta) ->
        Tablefmt.add_row t
          [
            m.Intf.name;
            Intf.family_to_string m.Intf.family;
            m.Intf.restriction;
            m.Intf.async_propagation;
            m.Intf.sorting_time;
          ])
      Registry.metas;
    Tablefmt.print t
  in
  Cmd.v (Cmd.info "methods" ~doc) Term.(const run $ const ())

(* --- run --- *)

let method_arg =
  let doc = "Replica control method: ORDUP, COMMU, RITU, COMPE, 2PC, QUORUM, QUASI." in
  Arg.(value & opt string "COMMU" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let sites_arg =
  Arg.(value & opt int 4 & info [ "s"; "sites" ] ~docv:"N" ~doc:"Number of replica sites.")

let duration_arg =
  Arg.(value & opt float 2_000.0 & info [ "duration" ] ~docv:"MS" ~doc:"Virtual ms of workload arrivals.")

let update_rate_arg =
  Arg.(value & opt float 0.05 & info [ "update-rate" ] ~docv:"R" ~doc:"Update ETs per virtual ms.")

let query_rate_arg =
  Arg.(value & opt float 0.05 & info [ "query-rate" ] ~docv:"R" ~doc:"Query ETs per virtual ms.")

let keys_arg =
  Arg.(value & opt int 32 & info [ "keys" ] ~docv:"K" ~doc:"Size of the keyspace.")

let theta_arg =
  Arg.(value & opt float 0.6 & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (0 = uniform).")

let epsilon_arg =
  Arg.(value & opt int (-1) & info [ "e"; "epsilon" ] ~docv:"E" ~doc:"Per-query inconsistency limit; negative = unlimited.")

let op_profile_arg =
  let doc =
    "Operation profile: auto (match the method's restriction), additive, \
     blind-set, or mixed:FRAC (FRAC = Mul share)."
  in
  Arg.(value & opt string "auto" & info [ "op-profile" ] ~docv:"P" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic run seed.")

let loss_arg =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Message loss probability.")

let latency_arg =
  Arg.(value & opt float 10.0 & info [ "latency" ] ~docv:"MS" ~doc:"Mean one-way link latency (exponential).")

let ordering_arg =
  Arg.(
    value
    & opt (enum [ ("sequencer", `Sequencer); ("lamport", `Lamport) ]) `Sequencer
    & info [ "ordup-ordering" ] ~doc:"ORDUP order source: sequencer or lamport.")

let ritu_mode_arg =
  Arg.(
    value
    & opt (enum [ ("single", `Single); ("multi", `Multi) ]) `Single
    & info [ "ritu-mode" ] ~doc:"RITU version mode: single or multi.")

let abort_arg =
  Arg.(value & opt float 0.0 & info [ "abort-probability" ] ~doc:"COMPE global abort probability.")

let placement_arg =
  Arg.(
    value & opt string "all"
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:"Replica placement policy: all (full replication, the \
              default), ring (each shard at consecutive sites) or hash.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"Number of key shards (default: one per site under partial \
              placement).")

let replication_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replication" ] ~docv:"R"
        ~doc:"Replication factor: copies of each shard (default: all \
              sites for --placement all, min 3 sites otherwise).  \
              R = sites reproduces full replication exactly.")

(* Build the shard map the CLI knobs describe.  [None] when the result is
   full replication: the run then takes the default all-sites map, and
   the summary prints a sharding row only for partial maps. *)
let make_sharding ~sites ~placement ~shards ~replication =
  match Esr_store.Sharding.policy_of_string placement with
  | Error m ->
      Printf.eprintf "--placement: %s\n" m;
      exit 1
  | Ok policy -> (
      match
        Esr_store.Sharding.create ~policy ?shards ?factor:replication ~sites ()
      with
      | exception Invalid_argument m ->
          prerr_endline m;
          exit 1
      | s -> if Esr_store.Sharding.is_full s then None else Some s)

let parse_profile ~meth s =
  match String.lowercase_ascii s with
  | "auto" -> Ok (Spec.method_profile meth)
  | "additive" -> Ok Spec.Additive
  | "blind-set" | "blind_set" | "set" -> Ok Spec.Blind_set
  | other ->
      if String.length other > 6 && String.sub other 0 6 = "mixed:" then
        match float_of_string_opt (String.sub other 6 (String.length other - 6)) with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok (Spec.Mixed_arith f)
        | Some _ | None -> Error (`Msg "mixed:FRAC needs FRAC in [0,1]")
      else Error (`Msg (Printf.sprintf "unknown profile %S" s))

(* The first failed [(flag, holds, expectation)] check, as a CLI error. *)
let check_flags checks =
  match List.find_opt (fun (_, holds, _) -> not holds) checks with
  | Some (flag, _, expect) ->
      Error (`Msg (Printf.sprintf "--%s: must be %s" flag expect))
  | None -> Ok ()

let non_negative x = Float.is_finite x && x >= 0.0
let positive x = Float.is_finite x && x > 0.0

(* [Scenario.run] queues every arrival, and every series sample and
   checkpoint tick, as an engine event before the run starts, so their
   expected count bounds its memory. *)
let max_queued = 10_000_000

(* Validate the knobs [run], [nemesis] and [audit] share and translate
   them into a scenario.  Every malformed value is refused here, before
   anything runs, instead of surfacing as an exception (or a run that
   never drains) deep inside the simulator.  [ticks] are the periods of
   the run's series samples and checkpoint cuts (a non-positive one is
   off). *)
let prepare_scenario ~meth ~sites ~duration ~update_rate ~query_rate ~keys
    ~theta ~epsilon ~profile ~loss ~latency ~ordering ~ritu_mode ~abort_p
    ~ticks =
  let ( let* ) = Result.bind in
  let queued =
    List.fold_left
      (fun n period -> if positive period then n +. (duration /. period) else n)
      ((update_rate +. query_rate) *. duration)
      ticks
  in
  let* () =
    if Registry.find meth <> None then Ok ()
    else
      Error
        (`Msg
          (Printf.sprintf "unknown method %S (known: %s)" meth
             (String.concat ", " Registry.names)))
  in
  let* () =
    check_flags
      [
        ( "sites",
          sites >= 1 && sites <= Net.max_sites,
          Printf.sprintf "an integer in [1, %d]" Net.max_sites );
        ("keys", keys >= 1, "a positive integer");
        ("duration", positive duration, "positive");
        ("update-rate", non_negative update_rate, "a non-negative number");
        ("query-rate", non_negative query_rate, "a non-negative number");
        ( "duration",
          queued <= float_of_int max_queued,
          Printf.sprintf
            "at most %d / (update-rate + query-rate + series and checkpoint \
             ticks per ms) ms: every arrival and tick is queued up front"
            max_queued );
        ("theta", non_negative theta, "a non-negative number");
        ("latency", non_negative latency, "a non-negative number");
        ( "loss",
          non_negative loss && loss < 1.0,
          "in [0, 1) (at 1 no message is ever delivered)" );
        ( "abort-probability",
          non_negative abort_p && abort_p <= 1.0,
          "in [0, 1]" );
      ]
  in
  let* profile = parse_profile ~meth profile in
  let spec =
    {
      (Spec.for_method meth
         {
           Spec.default with
           Spec.duration;
           update_rate;
           query_rate;
           n_keys = keys;
           zipf_theta = theta;
           epsilon = Epsilon.spec_of_int epsilon;
         })
      with
      Spec.profile;
    }
  in
  let net_config =
    {
      Net.latency = Dist.Exponential latency;
      drop_probability = loss;
      duplicate_probability = 0.0;
    }
  in
  let config =
    {
      Intf.default_config with
      Intf.ordup_ordering = ordering;
      ritu_mode;
      compe_abort_probability = abort_p;
    }
  in
  Ok (spec, net_config, config)

let or_exit = function
  | Ok x -> x
  | Error (`Msg m) ->
      prerr_endline m;
      exit 1

let write_trace ?(extra = []) ~file ~format ~sites (trace : Trace.t) =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | `Jsonl -> Trace.write_jsonl oc trace
      | `Chrome -> Trace.write_chrome ~extra oc ~sites trace);
  if Trace.dropped trace > 0 then
    Printf.eprintf
      "warning: trace ring buffer overflowed; %d oldest events dropped\n"
      (Trace.dropped trace)

let trace_format_conv =
  Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a structured event trace of the run into $(docv).")

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv `Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: jsonl (one event per line) or chrome \
              (Chrome trace_event JSON, loadable in Perfetto).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Inject a fault schedule, e.g. \"crash\\@400:2; recover\\@900:2; \
              partition\\@1000:0 1|2 3; heal\\@1500\".  Crashed sites lose \
              their volatile state and replay the durable log on recovery.")

let checkpoint_interval_arg =
  Arg.(
    value & opt float 0.0
    & info [ "checkpoint-interval" ] ~docv:"MS"
        ~doc:"Take an asynchronous checkpoint cut at every site every \
              $(docv) virtual ms: the site image is snapshotted at a \
              consistent cut without pausing traffic, and the durable \
              log and reclaimable journal records behind the cut are \
              truncated; crash recovery then replays checkpoint + tail. \
              0 (the default) disables checkpointing, which is \
              byte-identical to older builds.")

let checkpoint_retain_arg =
  Arg.(
    value
    & opt int Esr_replica.Checkpoint.default_retain
    & info [ "checkpoint-retain" ] ~docv:"N"
        ~doc:"Snapshots retained per site (newest is used for recovery).")

let make_checkpoint ~interval ~retain =
  or_exit
    (check_flags
       [
         ("checkpoint-interval", interval < infinity, "a finite number");
         ("checkpoint-retain", retain >= 1, "at least 1");
       ]);
  if interval <= 0.0 then None
  else Some { Esr_replica.Checkpoint.interval; retain }

(* Parse --faults and check it against the run: sites in range, and no
   crash at the exact time of a checkpoint cut. *)
let parse_faults ?checkpoint ~sites = function
  | None -> None
  | Some s -> (
      let interval =
        Option.map (fun c -> c.Esr_replica.Checkpoint.interval) checkpoint
      in
      match
        Result.bind (Schedule.of_spec s) (fun schedule ->
            Result.map
              (fun () -> schedule)
              (Schedule.validate ?checkpoint:interval ~sites schedule))
      with
      | Ok schedule -> Some schedule
      | Error m ->
          Printf.eprintf "--faults: %s\n" m;
          exit 1)

let print_metrics_arg =
  Arg.(
    value & flag
    & info [ "print-metrics" ]
        ~doc:"Print the full metrics registry (engine, net, squeue, \
              harness and method groups) after the summary table.")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Export the final metrics registry to $(docv): JSON when the \
              extension is .json, OpenMetrics text exposition otherwise.")

let series_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series" ] ~docv:"FILE"
        ~doc:"Sample the divergence time series during the run and dump it \
              to $(docv): CSV when the extension is .csv, the esr-series/1 \
              JSON document otherwise (what 'esrsim report' consumes).")

let series_interval_arg =
  Arg.(
    value & opt float 50.0
    & info [ "series-interval" ] ~docv:"MS"
        ~doc:"Virtual-time sampling cadence for --series.")

let prof_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:"Profile host wall-clock and GC allocation by phase (engine \
              dispatch, apply, propagate, net delivery, WAL append, \
              replay) during the run and write the esr-profile/1 JSON \
              dump to $(docv).  A chrome-format --trace export gains a \
              host-time track (pid 1) next to the virtual timeline.")

let with_out file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Registry snapshot as a self-describing JSON document (the .json branch
   of --metrics; the default branch is the OpenMetrics exposition). *)
let write_metrics_json oc entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"esr-metrics/1\",\"metrics\":[\n";
  List.iteri
    (fun i (e : Metrics.entry) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"group\":\"";
      Json.buf_add_escaped b e.group;
      Buffer.add_string b "\",\"name\":\"";
      Json.buf_add_escaped b e.name;
      Buffer.add_char b '"';
      (match e.site with
      | Some s -> Buffer.add_string b (Printf.sprintf ",\"site\":%d" s)
      | None -> ());
      (match e.view with
      | Metrics.Counter_v v ->
          Buffer.add_string b
            (Printf.sprintf ",\"kind\":\"counter\",\"value\":%s" (Json.float_repr v))
      | Metrics.Gauge_v v ->
          Buffer.add_string b
            (Printf.sprintf ",\"kind\":\"gauge\",\"value\":%s" (Json.float_repr v))
      | Metrics.Histogram_v { limits; counts; sum; count } ->
          Buffer.add_string b ",\"kind\":\"histogram\",\"limits\":[";
          Array.iteri
            (fun j l ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b (Json.float_repr l))
            limits;
          Buffer.add_string b "],\"counts\":[";
          Array.iteri
            (fun j c ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b (string_of_int c))
            counts;
          Buffer.add_string b
            (Printf.sprintf "],\"sum\":%s,\"count\":%d,\"p50\":%s,\"p99\":%s"
               (Json.float_repr sum) count
               (Json.float_repr (Metrics.view_percentile e.view 50.0))
               (Json.float_repr (Metrics.view_percentile e.view 99.0))));
      Buffer.add_char b '}')
    entries;
  Buffer.add_string b "\n]}\n";
  output_string oc (Buffer.contents b)

let export_metrics ~file metrics =
  let entries = Metrics.snapshot metrics in
  with_out file (fun oc ->
      if Filename.check_suffix file ".json" then write_metrics_json oc entries
      else Openmetrics.write_snapshot oc entries)

let export_series ~file series =
  with_out file (fun oc ->
      if Filename.check_suffix file ".csv" then Series.write_csv oc series
      else Series.write_json oc series)

let audit_flag_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:"Tap the runtime consistency auditor into the run (tracing is \
              forced on): delivery, ordering, epsilon, crash, checkpoint \
              and convergence invariants are checked online against the \
              live event stream, and the certificate is printed after the \
              summary.  Exit status 2 when any invariant is violated.")

let run_cmd =
  let doc = "Run one workload against one method and print the metrics." in
  let run meth sites duration update_rate query_rate keys theta epsilon profile
      seed loss latency ordering ritu_mode abort_p placement shards replication
      faults_spec checkpoint_interval checkpoint_retain trace_file trace_format
      show_metrics metrics_file series_file series_interval prof_file do_audit =
    let spec, net_config, config =
      or_exit
        (prepare_scenario ~meth ~sites ~duration ~update_rate ~query_rate
           ~keys ~theta ~epsilon ~profile ~loss ~latency ~ordering ~ritu_mode
           ~abort_p
           ~ticks:
             [
               (if series_file <> None then series_interval else 0.0);
               checkpoint_interval;
             ])
    in
    or_exit
      (check_flags
         [ ("series-interval", positive series_interval, "positive") ]);
    let sharding = make_sharding ~sites ~placement ~shards ~replication in
    let checkpoint =
      make_checkpoint ~interval:checkpoint_interval ~retain:checkpoint_retain
    in
    let faults = parse_faults ?checkpoint ~sites faults_spec in
    let obs =
      Obs.create
        ~tracing:(trace_file <> None || do_audit)
        ~series:(series_file <> None) ~series_interval
        ~profiling:(prof_file <> None) ()
    in
    (* A JSONL --trace streams through a file sink as events are
       emitted, so long horizons keep their full history even after
       the in-memory ring wraps.  Chrome exports still come from the
       ring (the format needs the whole timeline up front). *)
    let streamed =
      match (trace_file, trace_format) with
      | Some file, `Jsonl ->
          let oc = open_out file in
          Trace.file_sink obs.Obs.trace oc;
          Some oc
      | _ -> None
    in
    let audit =
      if do_audit then Some (Audit.create ~label:meth ()) else None
    in
    let r =
      Scenario.run ~seed ~config ~net_config ?sharding ~obs ?faults
        ?checkpoint ?audit ~sites ~method_name:meth spec
    in
    let t =
      Tablefmt.create
        ~title:(Printf.sprintf "%s on %d sites (seed %d)" meth sites seed)
        ~headers:[ "Metric"; "Value" ]
    in
    let add name v = Tablefmt.add_row t [ name; v ] in
    add "spec" (Format.asprintf "%a" Spec.pp spec);
    (match sharding with
    | Some s -> add "sharding" (Format.asprintf "%a" Esr_store.Sharding.pp s)
    | None -> ());
    (match faults with
    | Some schedule -> add "faults" (Schedule.to_spec schedule)
    | None -> ());
    (match checkpoint with
    | Some { Esr_replica.Checkpoint.interval; retain } ->
        add "checkpoint"
          (Printf.sprintf "interval %g ms, retain %d" interval retain)
    | None -> ());
    add "updates committed" (Printf.sprintf "%d / %d" r.Scenario.committed r.Scenario.submitted_updates);
    add "updates rejected" (string_of_int r.Scenario.rejected);
    add "queries served" (Printf.sprintf "%d / %d" r.Scenario.served r.Scenario.submitted_queries);
    add "update latency p50/p95 (ms)"
      (Printf.sprintf "%.1f / %.1f"
         (Stats.median r.Scenario.update_latency)
         (Stats.percentile r.Scenario.update_latency 95.0));
    add "query latency p50/p95 (ms)"
      (Printf.sprintf "%.1f / %.1f"
         (Stats.median r.Scenario.query_latency)
         (Stats.percentile r.Scenario.query_latency 95.0));
    add "query inconsistency units mean/max"
      (Printf.sprintf "%.2f / %.0f"
         (Stats.mean r.Scenario.charged)
         (Stats.max r.Scenario.charged));
    add "query value error mean" (Printf.sprintf "%.2f" (Stats.mean r.Scenario.value_error));
    add "SR-path queries" (string_of_int r.Scenario.fallback_queries);
    add "throughput (upd/s)" (Printf.sprintf "%.1f" (Scenario.throughput r));
    add "quiesce time (ms)" (Printf.sprintf "%.1f" r.Scenario.quiesce_time);
    add "settled / converged"
      (Printf.sprintf "%s / %s"
         (Tablefmt.cell_bool r.Scenario.settled)
         (Tablefmt.cell_bool r.Scenario.converged));
    List.iter (fun (k, v) -> add ("method: " ^ k) (Tablefmt.cell_float v)) r.Scenario.method_stats;
    Tablefmt.print t;
    (match trace_file with
    | Some file -> (
        match streamed with
        | Some oc ->
            close_out oc;
            Printf.printf "trace: %d events -> %s\n"
              (Trace.length obs.Obs.trace + Trace.dropped obs.Obs.trace)
              file
        | None ->
            (* With profiling on, a chrome export carries the host-time
               phase spans as a second process track. *)
            let extra =
              if Prof.on obs.Obs.prof then Prof.chrome_events obs.Obs.prof
              else []
            in
            write_trace ~extra ~file ~format:trace_format ~sites
              obs.Obs.trace;
            Printf.printf "trace: %d events -> %s\n"
              (Trace.length obs.Obs.trace) file)
    | None -> ());
    if show_metrics then begin
      print_endline "metrics:";
      List.iter
        (fun e -> Format.printf "  %a@." Metrics.pp_entry e)
        (Metrics.snapshot obs.Obs.metrics)
    end;
    (match metrics_file with
    | Some file ->
        export_metrics ~file obs.Obs.metrics;
        Printf.printf "metrics -> %s\n" file
    | None -> ());
    (match series_file with
    | Some file ->
        export_series ~file obs.Obs.series;
        Printf.printf "series: %d samples -> %s\n"
          (Series.length obs.Obs.series) file
    | None -> ());
    (match prof_file with
    | Some file ->
        with_out file (fun oc -> Prof.write_json oc obs.Obs.prof);
        Printf.printf "profile: %d spans -> %s\n"
          (Prof.span_count obs.Obs.prof) file
    | None -> ());
    let audit_failed =
      match audit with
      | None -> false
      | Some a ->
          let report = Audit.finish a in
          Format.printf "%a" Audit.pp_report report;
          not (Audit.ok report)
    in
    (* A schedule that leaves a site crashed or a partition standing
       cannot converge; only all-clear runs gate the exit status. *)
    let expect_convergence =
      match faults with
      | Some s -> Schedule.all_clear s
      | None -> true
    in
    if audit_failed || (expect_convergence && not r.Scenario.converged)
    then exit 2
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ method_arg $ sites_arg $ duration_arg $ update_rate_arg
      $ query_rate_arg $ keys_arg $ theta_arg $ epsilon_arg $ op_profile_arg
      $ seed_arg $ loss_arg $ latency_arg $ ordering_arg $ ritu_mode_arg
      $ abort_arg $ placement_arg $ shards_arg $ replication_arg $ faults_arg
      $ checkpoint_interval_arg $ checkpoint_retain_arg $ trace_file_arg
      $ trace_format_arg $ print_metrics_arg $ metrics_file_arg
      $ series_file_arg $ series_interval_arg $ prof_file_arg $ audit_flag_arg)

(* --- nemesis and audit: seeded fault campaigns --- *)

let campaign_method_arg verb =
  let doc = Printf.sprintf "Method to %s, or 'all' for the whole registry." verb in
  Arg.(value & opt string "all" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let windows_arg =
  Arg.(
    value & opt int Nemesis.default_profile.Nemesis.max_faults
    & info [ "windows" ] ~docv:"N" ~doc:"Fault windows to generate.")

let crash_bias_arg =
  Arg.(
    value
    & opt float Nemesis.default_profile.Nemesis.crash_bias
    & info [ "crash-bias" ] ~docv:"P"
        ~doc:"Probability a window is a crash rather than a partition.")

(* A campaign's scenario per method ([-m all]: every registered one) under
   the fixed flags both commands use, and its seeded nemesis schedule,
   printed.  Every flag is checked first: out of range, a bias turns every
   window into a crash (or, as NaN, into a partition). *)
let campaign ~meth ~sites ~duration ~update_rate ~query_rate ~keys ~theta
    ~epsilon ~seed ~windows ~crash_bias ~ticks =
  let scenarios =
    List.map
      (fun meth ->
        ( meth,
          or_exit
            (prepare_scenario ~meth ~sites ~duration ~update_rate ~query_rate
               ~keys ~theta ~epsilon ~profile:"auto" ~loss:0.0 ~latency:10.0
               ~ordering:`Sequencer ~ritu_mode:`Single ~abort_p:0.0 ~ticks) ))
      (if String.lowercase_ascii meth = "all" then Registry.names else [ meth ])
  in
  or_exit
    (check_flags
       [
         ("windows", windows >= 0, "at least 0");
         ("crash-bias", crash_bias >= 0.0 && crash_bias <= 1.0, "in [0, 1]");
       ]);
  let profile =
    { Nemesis.default_profile with Nemesis.max_faults = windows; crash_bias }
  in
  let schedule =
    Nemesis.generate ~profile ~seed ~sites ~duration:(duration *. 0.8) ()
  in
  Printf.printf "nemesis schedule (seed %d): %s\n" seed
    (Schedule.to_spec schedule);
  (scenarios, schedule)

let nemesis_cmd =
  let doc =
    "Generate a seeded random fault schedule (crash/recover and \
     partition/heal windows, all healed before quiescence) and assert \
     that the method survives it: the system settles and the replicas \
     converge.  With --method all, every registered method faces the \
     same schedule; any failure makes the exit status non-zero."
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Record each run's event trace into \
                $(docv)/nemesis_METHOD_seedN.jsonl.")
  in
  let series_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-dir" ] ~docv:"DIR"
          ~doc:"Dump each run's divergence series into \
                $(docv)/nemesis_METHOD_seedN.series.json.")
  in
  let metrics_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-dir" ] ~docv:"DIR"
          ~doc:"Export each run's final metrics registry (OpenMetrics) \
                into $(docv)/nemesis_METHOD_seedN.om.")
  in
  let run meth sites duration update_rate query_rate keys theta seed windows
      crash_bias trace_dir series_dir metrics_dir =
    (* Every nemesis run samples the divergence series at this cadence. *)
    let series_interval = 50.0 in
    let scenarios, schedule =
      campaign ~meth ~sites ~duration ~update_rate ~query_rate ~keys ~theta
        ~epsilon:(-1) ~seed ~windows ~crash_bias ~ticks:[ series_interval ]
    in
    List.iter
      (function
        | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
        | Some _ | None -> ())
      [ trace_dir; series_dir; metrics_dir ];
    let t =
      Tablefmt.create
        ~title:
          (Printf.sprintf "nemesis on %d sites (seed %d, %d windows)" sites
             seed windows)
        ~headers:
          [
            "Method";
            "Settled";
            "Converged";
            "Replays";
            "Committed";
            "PeakDiv";
            "ConvLag(ms)";
          ]
    in
    let failures = ref [] in
    List.iter
      (fun (meth, (spec, net_config, config)) ->
        (* Series always on here: the divergence columns come from it,
           and nemesis runs are already paying for tracing. *)
        let obs = Obs.create ~tracing:true ~series:true ~series_interval () in
        let r =
          Scenario.run ~seed ~config ~net_config ~obs ~faults:schedule
            ~sites ~method_name:meth spec
        in
        let replays = ref 0 in
        Trace.iter obs.Obs.trace (fun record ->
            match record.Trace.ev with
            | Trace.Recovery_replay _ -> incr replays
            | _ -> ());
        let dump_name ext =
          Printf.sprintf "nemesis_%s_seed%d%s"
            (String.lowercase_ascii
               (String.map (function '/' -> '_' | c -> c) meth))
            seed ext
        in
        (match trace_dir with
        | Some dir ->
            write_trace
              ~file:(Filename.concat dir (dump_name ".jsonl"))
              ~format:`Jsonl ~sites obs.Obs.trace
        | None -> ());
        (match series_dir with
        | Some dir ->
            export_series
              ~file:(Filename.concat dir (dump_name ".series.json"))
              obs.Obs.series
        | None -> ());
        (match metrics_dir with
        | Some dir ->
            export_metrics
              ~file:(Filename.concat dir (dump_name ".om"))
              obs.Obs.metrics
        | None -> ());
        (* Peak replica spread over the run and how long past the last
           fault-schedule step the system needed to fully drain. *)
        let peak_div =
          match Series.column_index obs.Obs.series "esr/spread_max" with
          | None -> 0.0
          | Some i ->
              let peak = ref 0.0 in
              Series.iter obs.Obs.series (fun s ->
                  peak := Float.max !peak s.Series.values.(i));
              !peak
        in
        let conv_lag =
          Float.max 0.0 (r.Scenario.quiesce_time -. Schedule.clear_time schedule)
        in
        let ok = r.Scenario.settled && r.Scenario.converged in
        if not ok then failures := meth :: !failures;
        Tablefmt.add_row t
          [
            meth;
            Tablefmt.cell_bool r.Scenario.settled;
            Tablefmt.cell_bool r.Scenario.converged;
            string_of_int !replays;
            Printf.sprintf "%d/%d" r.Scenario.committed
              r.Scenario.submitted_updates;
            Tablefmt.cell_float peak_div;
            Tablefmt.cell_float conv_lag;
          ])
      scenarios;
    Tablefmt.print t;
    match List.rev !failures with
    | [] -> ()
    | fs ->
        Printf.eprintf "nemesis: %s did not converge\n" (String.concat ", " fs);
        exit 2
  in
  Cmd.v (Cmd.info "nemesis" ~doc)
    Term.(
      const run $ campaign_method_arg "stress" $ sites_arg $ duration_arg
      $ update_rate_arg $ query_rate_arg $ keys_arg $ theta_arg $ seed_arg
      $ windows_arg $ crash_bias_arg $ trace_dir_arg $ series_dir_arg
      $ metrics_dir_arg)

(* --- report --- *)

(* Reading a directory fails with an error that does not name it, so a
   directory is refused here, by name. *)
let open_in_file file =
  if Sys.file_exists file && Sys.is_directory file then
    raise (Sys_error (file ^ ": Is a directory"));
  open_in_bin file

let read_file file =
  let ic = open_in_file file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse a JSONL trace dump back into records.  Unparseable lines are
   counted and reported rather than silently skipped. *)
let read_trace_jsonl file =
  let ic = open_in_file file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let records = ref [] and bad = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Trace.record_of_json line with
             | Ok r -> records := r :: !records
             | Error _ -> incr bad
         done
       with End_of_file -> ());
      (List.rev !records, !bad))

(* --- audit --- *)

let audit_cmd =
  let doc =
    "Certify the paper's guarantees over a run.  With --trace, replay a \
     recorded JSONL dump through the auditor; otherwise drive live \
     seeded-nemesis runs (every method with -m all, optionally repeated \
     under ring-sharded partial replication with --sharded) with the \
     auditor tapped into the event stream.  Checks exactly-once gap-free \
     squeue delivery, in-order dense ORDUP apply streams, the epsilon \
     bound and the reconstructed overlap behind every charge, crash \
     discipline (no effects from down sites, complete log replay), \
     checkpoint cuts, and the convergence certificate.  Exit status 2 \
     when any invariant is violated; each violation pins the first \
     offending trace event."
  in
  let trace_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Audit a recorded JSONL trace dump instead of running live.")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Write the esr-audit/1 certificate of every audited run \
                (violations, summary and the per-query epsilon ledger) to \
                $(docv), one JSON document per line.")
  in
  let sharded_arg =
    Arg.(
      value & flag
      & info [ "sharded" ]
          ~doc:"Also audit each method under ring-sharded partial \
                replication (placement ring, default shard count).")
  in
  let label_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"NAME"
          ~doc:"Certificate label for --trace mode (default: file name).")
  in
  let run meth sites duration update_rate query_rate keys theta epsilon seed
      windows crash_bias sharded checkpoint_interval checkpoint_retain
      trace_in ledger_file label =
    let certs = ref [] and failed = ref false in
    let record report =
      certs := report :: !certs;
      if not (Audit.ok report) then failed := true
    in
    (match trace_in with
    | Some file ->
        let records, bad = read_trace_jsonl file in
        if records = [] then begin
          Printf.eprintf "audit: no parseable trace records in %s\n" file;
          exit 1
        end;
        if bad > 0 then
          Printf.eprintf "warning: %d unparseable trace lines skipped\n" bad;
        let label =
          match label with
          | Some l -> l
          | None -> Filename.remove_extension (Filename.basename file)
        in
        let report = Audit.audit_records ~label records in
        Format.printf "%a" Audit.pp_report report;
        record report
    | None ->
        let checkpoint =
          make_checkpoint ~interval:checkpoint_interval
            ~retain:checkpoint_retain
        in
        let scenarios, schedule =
          campaign ~meth ~sites ~duration ~update_rate ~query_rate ~keys
            ~theta ~epsilon ~seed ~windows ~crash_bias
            ~ticks:[ checkpoint_interval ]
        in
        let placements = `Full :: (if sharded then [ `Ring ] else []) in
        let t =
          Tablefmt.create
            ~title:
              (Printf.sprintf "audit on %d sites (seed %d, %d windows)" sites
                 seed windows)
            ~headers:
              [
                "Method";
                "Placement";
                "Events";
                "Queries";
                "Windows";
                "Exact";
                "Violations";
              ]
        in
        List.iter
          (fun (meth, (spec, net_config, config)) ->
            List.iter
              (fun placement ->
                let placement_name, sharding =
                  match placement with
                  | `Full -> ("full", None)
                  | `Ring ->
                      ( "ring",
                        make_sharding ~sites ~placement:"ring" ~shards:None
                          ~replication:None )
                in
                let obs = Obs.create ~tracing:true () in
                let audit =
                  Audit.create
                    ~label:
                      (Printf.sprintf "%s/%s/seed%d" meth placement_name seed)
                    ()
                in
                ignore
                  (Scenario.run ~seed ~config ~net_config ?sharding ~obs ~audit
                     ?checkpoint ~faults:schedule ~sites ~method_name:meth spec);
                let report = Audit.finish audit in
                record report;
                let s = report.Audit.summary in
                Tablefmt.add_row t
                  [
                    meth;
                    placement_name;
                    string_of_int s.Audit.s_events;
                    string_of_int s.Audit.s_queries;
                    string_of_int s.Audit.s_windows;
                    string_of_int s.Audit.s_windows_exact;
                    string_of_int (List.length report.Audit.violations);
                  ];
                List.iter
                  (fun v ->
                    Format.eprintf "%s: %a@." report.Audit.label
                      Audit.pp_violation v)
                  report.Audit.violations)
              placements)
          scenarios;
        Tablefmt.print t;
        print_endline
          (if !failed then "audit: VIOLATIONS found"
           else "audit: all runs certified"));
    (match ledger_file with
    | Some file ->
        with_out file (fun oc ->
            List.iter
              (fun report ->
                output_string oc (Audit.report_to_json report);
                output_char oc '\n')
              (List.rev !certs));
        Printf.printf "certificates -> %s\n" file
    | None -> ());
    if !failed then exit 2
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run $ campaign_method_arg "audit" $ sites_arg $ duration_arg
      $ update_rate_arg $ query_rate_arg $ keys_arg $ theta_arg $ epsilon_arg
      $ seed_arg $ windows_arg $ crash_bias_arg $ sharded_arg
      $ checkpoint_interval_arg
      $ checkpoint_retain_arg $ trace_in_arg $ ledger_arg $ label_arg)

let report_cmd =
  let doc =
    "Render a recorded run (a --trace JSONL dump, optionally with its \
     --series dump) as a terminal dashboard, and optionally as a \
     self-contained HTML report or a span-enriched Chrome trace."
  in
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"JSONL trace dump to analyze (from 'run --trace' or \
                'nemesis --trace-dir').")
  in
  let series_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:"esr-series/1 dump matching the trace (enables the \
                divergence charts and profile table).")
  in
  let profile_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"esr-profile/1 dump matching the trace (from 'run \
                --profile'); enables the host-time phase breakdown \
                panel.")
  in
  let label_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"NAME" ~doc:"Report label (default: trace file name).")
  in
  let audit_report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:"esr-audit/1 certificate matching the trace (from 'audit \
                --ledger'; the first document when $(docv) holds several): \
                adds the audit certificate and epsilon-ledger panel.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write a self-contained HTML report to $(docv).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Also write a Chrome trace enriched with span-tree flow \
                events (MSet propagation arrows) to $(docv).")
  in
  let run trace_file series_file profile_file label html_file chrome_file
      audit_file =
    let records, bad = read_trace_jsonl trace_file in
    if records = [] then begin
      Printf.eprintf "report: no parseable trace records in %s\n" trace_file;
      exit 1
    end;
    if bad > 0 then
      Printf.eprintf "warning: %d unparseable trace lines skipped\n" bad;
    let series =
      match series_file with
      | None -> None
      | Some f -> (
          match Series.dump_of_json (read_file f) with
          | Ok d -> Some d
          | Error m ->
              Printf.eprintf "report: %s: %s\n" f m;
              exit 1)
    in
    let profile =
      match profile_file with
      | None -> None
      | Some f -> (
          match Prof.dump_of_json (read_file f) with
          | Ok d -> Some d
          | Error m ->
              Printf.eprintf "report: %s: %s\n" f m;
              exit 1)
    in
    let audit =
      match audit_file with
      | None -> None
      | Some f -> (
          let text = read_file f in
          (* --ledger files hold one certificate per line; take the first. *)
          let first =
            match String.index_opt text '\n' with
            | Some i -> String.sub text 0 i
            | None -> text
          in
          match Audit.report_of_json first with
          | Ok r -> Some r
          | Error m ->
              Printf.eprintf "report: %s: %s\n" f m;
              exit 1)
    in
    let label =
      match label with
      | Some l -> l
      | None -> Filename.remove_extension (Filename.basename trace_file)
    in
    let input = Report.make ~label ?series ?profile ?audit records in
    print_string (Report.dashboard input);
    (match html_file with
    | Some f ->
        with_out f (fun oc -> output_string oc (Report.html input));
        Printf.printf "html report -> %s\n" f
    | None -> ());
    match chrome_file with
    | Some f ->
        let sites = Report.sites_of records in
        let spans = Spans.reconstruct records in
        (* Rebuild a sink so the standard exporter does the base timeline;
           the span flows ride in through [extra]. *)
        let sink =
          Trace.make ~capacity:(Stdlib.max 1 (List.length records)) ~enabled:true ()
        in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.ev with
            | Trace.Trace_meta _ -> ()
            | ev -> Trace.emit sink ~time:r.Trace.time ev)
          records;
        with_out f (fun oc ->
            Trace.write_chrome ~extra:(Spans.chrome_events ~sites spans) oc ~sites
              sink);
        Printf.printf "chrome trace -> %s\n" f
    | None -> ()
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ trace_arg $ series_arg $ profile_dump_arg $ label_arg
      $ html_arg $ chrome_arg $ audit_report_arg)

(* --- check --- *)

let log_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc:"History in paper notation, e.g. \"R1(a) W1(b) W2(b)\".")

let check_cmd =
  let doc = "Check a history for serializability and epsilon-serializability." in
  let run log =
    match Hist.of_string log with
    | exception Invalid_argument m ->
        prerr_endline m;
        exit 1
    | h ->
        let t = Tablefmt.create ~title:"ESR check" ~headers:[ "Property"; "Value" ] in
        Tablefmt.add_row t [ "log"; Hist.to_string h ];
        Tablefmt.add_row t [ "conflict-SR"; Tablefmt.cell_bool (Esr_check.is_sr h) ];
        Tablefmt.add_row t
          [ "epsilon-serial"; Tablefmt.cell_bool (Esr_check.is_epsilon_serial h) ];
        Tablefmt.add_row t
          [ "update subhistory"; Hist.to_string (Esr_check.update_subhistory h) ];
        (match Esr_check.serial_witness h with
        | Some order ->
            Tablefmt.add_row t
              [ "serial witness"; String.concat " ; " (List.map string_of_int order) ]
        | None -> Tablefmt.add_row t [ "serial witness"; "(cyclic)" ]);
        Tablefmt.add_row t
          [ "max query overlap"; Tablefmt.cell_int (Esr_check.max_overlap h) ];
        Tablefmt.print t;
        if not (Esr_check.is_epsilon_serial h) then exit 2
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ log_arg)

let query_arg =
  Arg.(required & opt (some int) None & info [ "q"; "query" ] ~docv:"ET" ~doc:"Query ET id.")

let overlap_cmd =
  let doc = "Compute the overlap (inconsistency bound) of one query ET." in
  let run log query =
    match Hist.of_string log with
    | exception Invalid_argument m ->
        prerr_endline m;
        exit 1
    | h -> (
        match Esr_check.overlap h ~query with
        | exception Invalid_argument m ->
            prerr_endline m;
            exit 1
        | overlap ->
            Printf.printf "overlap(Q%d) = {%s}  bound = %d\n" query
              (String.concat ", " (List.map (Printf.sprintf "U%d") overlap))
              (List.length overlap))
  in
  Cmd.v (Cmd.info "overlap" ~doc) Term.(const run $ log_arg $ query_arg)

let main_cmd =
  let doc = "epsilon-serializability replica control simulator (Pu & Leff 1991)" in
  let info = Cmd.info "esrsim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      methods_cmd;
      run_cmd;
      nemesis_cmd;
      audit_cmd;
      report_cmd;
      check_cmd;
      overlap_cmd;
    ]

(* A file a command cannot open or write (a missing path, a directory)
   ends it with one line naming the path.  Any other escaping exception is
   a bug, reported as cmdliner would. *)
let () =
  exit
    (match Cmd.eval ~catch:false main_cmd with
    | code -> code
    | exception Sys_error m ->
        Printf.eprintf "esrsim: %s\n" m;
        1
    | exception e ->
        Printf.eprintf "esrsim: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        Cmd.Exit.internal_error)
