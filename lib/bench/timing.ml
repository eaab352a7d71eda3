(* Timed experiment sweep: runs every experiment three times — plain,
   with tracing enabled, and with the host-time profiler enabled;
   records wall-clock seconds for each, verifies all three outputs are
   byte-identical (instrumentation must not perturb results), and writes
   the trajectory file BENCH_experiments.json that later runs diff
   against.

   Output schema (BENCH_experiments.json, version 7):

     {
       "schema": "esr-bench-experiments/7",
       "scale": <the --scale / ESR_SCALE factor of this run>,
       "experiments": [
         { "name": "e1_scalability",
           "wall_s": <wall-clock of the plain run, seconds>,
           "traced_s": <wall-clock with tracing on, seconds>,
           "profiled_s": <wall-clock with the phase profiler on, seconds>,
           "trace_overhead": <traced_s / wall_s>,
           "profile_overhead": <profiled_s / wall_s>,
           "updates_per_sec": <applied update ops / wall_s; omitted
                               for experiments that don't report volume>,
           "phases": { "apply": { "count": <spans>, "seconds": <host s>,
                                  "alloc_bytes": <GC-allocated bytes> },
                       ... },   -- from the profiled run, zero phases
                                   omitted
           "peak_heap_bytes": <peak major-heap size observed *during*
                               this experiment's three runs, sampled at
                               every major-cycle end by a GC alarm>,
           "identical_output": true },
         ...
       ],
       "total": { "wall_s": ..., "traced_s": ..., "profiled_s": ...,
                  "trace_overhead": ... },
       "runs": [ { "at": <unix seconds>, "scale": ...,
                   "experiments": [...], "total": {...} }, ... ]
     }

   The top-level scale/experiments/total mirror the latest run; "runs"
   is the append-only history (oldest first, one run per line, capped at
   [max_history]), each entry stamped with the wall-clock "at" of its
   sweep.  The file is read before the first experiment runs: a v7
   file's history is carried over, a file of another schema starts a
   fresh history, and a file that does not parse, or whose run entry
   lacks a field the delta or the gate reads, stops the sweep (exit 1)
   and is left as it was.  After the sweep the summary prints a delta
   line against the previous *comparable* run — same --scale; comparing
   against a different tier would only measure the tier.  With
   ESR_BENCH_GATE=1 the sweep additionally *fails* (exit 4) when total
   wall_s regresses by more than 20% against that comparable run, or any
   experiment's updates/sec drops by more than 20% — CI runs the sweep
   twice into a scratch file so the gate compares like with like on the
   same machine.
*)

module Tablefmt = Esr_util.Tablefmt
module Json = Esr_util.Json
module Obs = Esr_obs.Obs
module Prof = Esr_obs.Prof

type sample = {
  name : string;
  wall_s : float;
  traced_s : float;
  profiled_s : float;
  updates_per_sec : float;
  phases : (string * Prof.agg) list;
  peak_heap_bytes : float;
  identical : bool;
}

(* Run [f] with stdout redirected to a temp file; return (wall-clock
   seconds, captured bytes).  Capturing serves double duty: timed runs
   don't spam the terminal, and the captures are compared to prove the
   tracing and profiling instrumentation preserve determinism. *)
let timed_captured f =
  let path = Filename.temp_file "esr_bench" ".out" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  let t0 = Unix.gettimeofday () in
  (try f ()
   with exn ->
     restore ();
     Sys.remove path;
     raise exn);
  let elapsed = Unix.gettimeofday () -. t0 in
  restore ();
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  (elapsed, bytes)

let ratio a b = if b > 0.0 then a /. b else 0.0
let total f samples = List.fold_left (fun a s -> a +. f s) 0.0 samples

let schema = "esr-bench-experiments/7"
let max_history = 25

(* --- run history --- *)

(* One run's fields, shared by the top-level mirror and the history
   entry. *)
let run_fields samples =
  let experiment s =
    let phase (name, (a : Prof.agg)) =
      ( name,
        Json.Obj
          [
            ("count", Json.int a.Prof.count);
            ("seconds", Json.Num a.Prof.seconds);
            ("alloc_bytes", Json.Num a.Prof.alloc_bytes);
          ] )
    in
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("wall_s", Json.Num s.wall_s);
         ("traced_s", Json.Num s.traced_s);
         ("profiled_s", Json.Num s.profiled_s);
         ("trace_overhead", Json.Num (ratio s.traced_s s.wall_s));
         ("profile_overhead", Json.Num (ratio s.profiled_s s.wall_s));
       ]
      (* Only experiments that measure volume carry throughput: a 0 here
         would read as a measurement of zero; omit the field instead. *)
      @ (if s.updates_per_sec > 0.0 then
           [ ("updates_per_sec", Json.Num s.updates_per_sec) ]
         else [])
      @ [
          ("phases", Json.Obj (List.map phase s.phases));
          ("peak_heap_bytes", Json.Num s.peak_heap_bytes);
          ("identical_output", Json.Bool s.identical);
        ])
  in
  let wall = total (fun s -> s.wall_s) samples in
  let traced = total (fun s -> s.traced_s) samples in
  [
    ("scale", Json.Num !Experiments.scale);
    ("experiments", Json.Arr (List.map experiment samples));
    ( "total",
      Json.Obj
        [
          ("wall_s", Json.Num wall);
          ("traced_s", Json.Num traced);
          ("profiled_s", Json.Num (total (fun s -> s.profiled_s) samples));
          ("trace_overhead", Json.Num (ratio traced wall));
        ] );
  ]

(* A run of the history: its entry as written, and what the delta line
   and the gate read from it — each experiment's wall_s and updates/sec
   (0 for an experiment that reports no volume). *)
type past = {
  entry : Json.t;
  scale : float;
  times : (string * (float * float)) list;
}

(* The run history in a trajectory file's text, oldest first.  Another
   schema version is no history; text that does not parse, or a v7 run
   entry missing a field read here, is an [Error] naming the field. *)
let history_of_string text =
  let open Json.Decode in
  let experiment e =
    ( field "name" string e,
      (field "wall_s" float e, field_or "updates_per_sec" 0.0 float e) )
  in
  let run j =
    {
      entry = j;
      scale = field "scale" float j;
      times = field "experiments" (list experiment) j;
    }
  in
  of_string
    (fun doc ->
      if field "schema" string doc = schema then field "runs" (list run) doc
      else [])
    text

(* The history of the file at [path]; a missing file is no history, so
   the bench runs on a fresh checkout.  A directory is an [Error], as it
   cannot be read. *)
let read_history path =
  if not (Sys.file_exists path) then Ok []
  else if Sys.is_directory path then Error "Is a directory"
  else history_of_string (In_channel.with_open_bin path In_channel.input_all)

(* Newest entry recorded at the same --scale, if any: a 2% smoke
   baseline must never gate a full-scale run, or the reverse. *)
let last_comparable history =
  List.fold_left
    (fun acc p ->
      if Float.abs (p.scale -. !Experiments.scale) < 1e-9 then Some p else acc)
    None history

(* Total wall_s of the previous run and of this sweep. *)
let wall_totals ~previous samples =
  ( List.fold_left (fun a (_, (w, _)) -> a +. w) 0.0 previous.times,
    total (fun s -> s.wall_s) samples )

(* Print how this sweep moved against the previous run: the total, plus
   any experiment whose wall-clock shifted by more than 10% (and at
   least a millisecond, so the tiny a2-style microbenches don't flap). *)
let print_delta ~previous samples =
  let prev = previous.times in
  let prev_total, cur_total = wall_totals ~previous samples in
  let pct cur old = (cur -. old) /. old *. 100.0 in
  if prev_total > 0.0 then begin
    Printf.printf "delta vs previous run: total wall %.3fs -> %.3fs (%+.1f%%)\n"
      prev_total cur_total (pct cur_total prev_total);
    List.iter
      (fun s ->
        match List.assoc_opt s.name prev with
        | Some (old_wall, _)
          when old_wall > 0.0
               && Float.abs (s.wall_s -. old_wall) > 0.001
               && Float.abs (pct s.wall_s old_wall) > 10.0 ->
            Printf.printf "  %-20s %.3fs -> %.3fs (%+.1f%%)\n" s.name old_wall
              s.wall_s (pct s.wall_s old_wall)
        | _ -> ())
      samples;
    (* Throughput deltas for the experiments that report volume. *)
    List.iter
      (fun s ->
        if s.updates_per_sec > 0.0 then
          match List.assoc_opt s.name prev with
          | Some (_, old_ups) when old_ups > 0.0 ->
              Printf.printf
                "  %-20s %.0f -> %.0f updates/sec (%+.1f%%)\n" s.name old_ups
                s.updates_per_sec (pct s.updates_per_sec old_ups)
          | _ ->
              Printf.printf "  %-20s %.0f updates/sec (no previous sample)\n"
                s.name s.updates_per_sec)
      samples
  end

(* The CI regression gate (ESR_BENCH_GATE=1): fail the sweep when it is
   more than 20% slower than the previous recorded run — by total
   wall_s, or by any experiment's reported updates/sec.  Meant for two
   back-to-back sweeps on the same machine; gating against a file
   produced on different hardware would only measure the hardware. *)
let gate_regression ~previous samples =
  let prev_total, cur_total = wall_totals ~previous samples in
  let failures = ref [] in
  if prev_total > 0.0 && cur_total > prev_total *. 1.20 then
    failures :=
      Printf.sprintf "total wall_s %.3fs -> %.3fs (>+20%%)" prev_total
        cur_total
      :: !failures;
  List.iter
    (fun s ->
      match List.assoc_opt s.name previous.times with
      | Some (_, old_ups)
        when old_ups > 0.0 && s.updates_per_sec < old_ups *. 0.80 ->
          failures :=
            Printf.sprintf "%s updates/sec %.0f -> %.0f (<-20%%)" s.name
              old_ups s.updates_per_sec
            :: !failures
      | _ -> ())
    samples;
  match !failures with
  | [] -> ()
  | msgs ->
      List.iter (fun m -> Printf.eprintf "bench gate: %s\n" m) msgs;
      exit 4

let write_json ~path ~history samples =
  let fields = run_fields samples in
  let runs =
    List.map (fun p -> p.entry) history
    @ [ Json.Obj (("at", Json.Num (Unix.time ())) :: fields) ]
  in
  let drop = List.length runs - max_history in
  let runs = List.filteri (fun i _ -> i >= drop) runs in
  Out_channel.with_open_bin path (fun oc ->
      Json.output_lines oc
        ((Json.Same ("schema", Json.Str schema)
         :: List.map (fun (k, v) -> Json.Next (k, v)) fields)
        @ [ Json.Rows ("runs", List.to_seq runs) ]));
  List.length runs

(* Time one experiment's plain, traced and profiled runs.  The pass that
   runs first pays the experiment's first-run costs (major-heap growth,
   cold caches), so experiment [i] starts at pass [i mod 3]. *)
let time_experiment i (name, f) =
  (* Per-experiment peak heap: the GC's top_heap_words is a process-wide
     high-water that never resets, so watch the major heap while *this*
     experiment's three runs execute: a GC alarm samples the heap size
     at every major-cycle end, and the max is this experiment's peak. *)
  let heap_peak = ref 0 in
  let sample_heap () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !heap_peak then heap_peak := h
  in
  sample_heap ();
  let heap_alarm = Gc.create_alarm sample_heap in
  (* Applied update-op volume reported by the plain run (the scale tiers
     do; most experiments report nothing and land at 0). *)
  let applied = ref 0 in
  let plain () =
    ignore (Experiments.take_applied ());
    let run = timed_captured f in
    applied := Experiments.take_applied ();
    run
  in
  (* The instrumented runs: the printed tables must not change — the
     captures are byte-compared below — so the delta is the pure cost of
     the instrumentation. *)
  let instrumented default () =
    default := true;
    Fun.protect ~finally:(fun () -> default := false) (fun () ->
        timed_captured f)
  in
  (* The host-time phase profiler on in every harness; the per-phase
     totals land in the JSON as this experiment's wall-clock/allocation
     breakdown. *)
  let phases = ref [] in
  let profiled () =
    Prof.reset_totals ();
    let run = instrumented Obs.default_profiling () in
    phases :=
      List.filter_map
        (fun (p, (a : Prof.agg)) ->
          if a.Prof.count > 0 then Some (Prof.phase_name p, a) else None)
        (Prof.totals ());
    run
  in
  let passes = [| plain; instrumented Obs.default_tracing; profiled |] in
  let runs = Array.make 3 (0.0, "") in
  for k = 0 to 2 do
    let p = (i + k) mod 3 in
    runs.(p) <- passes.(p) ()
  done;
  let (wall_s, out_plain), (traced_s, out_traced), (profiled_s, out_profiled) =
    (runs.(0), runs.(1), runs.(2))
  in
  Gc.delete_alarm heap_alarm;
  sample_heap ();
  {
    name;
    wall_s;
    traced_s;
    profiled_s;
    updates_per_sec = ratio (float_of_int !applied) wall_s;
    phases = !phases;
    peak_heap_bytes = float_of_int (!heap_peak * (Sys.word_size / 8));
    identical =
      String.equal out_plain out_traced && String.equal out_plain out_profiled;
  }

let print_table samples =
  let t =
    Tablefmt.create
      ~title:
        "Timed experiment sweep: wall-clock of a plain, a traced and a \
         profiled run of each experiment (output byte-compared between \
         the three)"
      ~headers:
        [
          "Experiment";
          "Wall (s)";
          "Traced (s)";
          "Profiled (s)";
          "Trace cost";
          "Prof cost";
          "Upd/s";
          "Peak heap (MB)";
          "Identical output";
        ]
  in
  let row name ~wall ~traced ~profiled ~ups ~peak ~identical =
    Tablefmt.add_row t
      [
        name;
        Printf.sprintf "%.3f" wall;
        Printf.sprintf "%.3f" traced;
        Printf.sprintf "%.3f" profiled;
        Printf.sprintf "%.2fx" (ratio traced wall);
        Printf.sprintf "%.2fx" (ratio profiled wall);
        (if ups > 0.0 then Printf.sprintf "%.0f" ups else "-");
        Printf.sprintf "%.1f" (peak /. (1024.0 *. 1024.0));
        Tablefmt.cell_bool identical;
      ]
  in
  List.iter
    (fun s ->
      row s.name ~wall:s.wall_s ~traced:s.traced_s ~profiled:s.profiled_s
        ~ups:s.updates_per_sec ~peak:s.peak_heap_bytes ~identical:s.identical)
    samples;
  Tablefmt.add_separator t;
  row "total"
    ~wall:(total (fun s -> s.wall_s) samples)
    ~traced:(total (fun s -> s.traced_s) samples)
    ~profiled:(total (fun s -> s.profiled_s) samples)
    ~ups:0.0
    ~peak:(List.fold_left (fun a s -> Float.max a s.peak_heap_bytes) 0.0 samples)
    ~identical:(List.for_all (fun s -> s.identical) samples);
  Tablefmt.print t

let default_path () =
  Option.value (Sys.getenv_opt "ESR_BENCH_OUT") ~default:"BENCH_experiments.json"

(** Time every experiment plain, traced and profiled; print the summary
    table, and write [BENCH_experiments.json] (path overridable with the
    ESR_BENCH_OUT environment variable). *)
let run_timed () =
  let path = default_path () in
  let history =
    match read_history path with
    | Ok history -> history
    | Error m ->
        Printf.eprintf "timed sweep: %s: %s\n" path m;
        exit 1
  in
  let samples = List.mapi time_experiment Experiments.all in
  print_table samples;
  let previous = last_comparable history in
  (match previous with
  | Some previous -> print_delta ~previous samples
  | None ->
      if history <> [] then
        print_endline
          "no comparable previous run (same --scale); delta and gate skipped");
  Printf.printf "wrote %s (%d runs in history)\n" path
    (write_json ~path ~history samples);
  if not (List.for_all (fun s -> s.identical) samples) then begin
    prerr_endline
      "timed sweep: traced/profiled output diverged from the plain run";
    exit 3
  end;
  match (Sys.getenv_opt "ESR_BENCH_GATE", previous) with
  | Some ("1" | "true"), Some previous -> gate_regression ~previous samples
  | _ -> ()
