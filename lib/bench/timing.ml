(* Timed experiment sweep: runs every experiment once sequentially
   (1 domain), once on the parallel pool, once on the pool with tracing
   enabled, and once on the pool with the host-time profiler enabled;
   records wall-clock seconds for each, verifies all four outputs are
   byte-identical (instrumentation must not perturb results), and writes
   the trajectory file BENCH_experiments.json that later PRs diff
   against.

   Output schema (BENCH_experiments.json, version 6):

     {
       "schema": "esr-bench-experiments/6",
       "scale": <the --scale / ESR_SCALE factor of this run>,
       "domains": { "sequential": 1, "parallel": <N>,
                    "requested": <N>, "physical_cores": <cores> },
       "experiments": [
         { "name": "e1_scalability",
           "sequential_s": <wall-clock, seconds>,
           "parallel_s": <wall-clock, seconds>,
           "traced_s": <wall-clock with tracing on, seconds>,
           "profiled_s": <wall-clock with the phase profiler on, seconds>,
           "speedup": <sequential_s / parallel_s>,
           "trace_overhead": <traced_s / parallel_s>,
           "profile_overhead": <profiled_s / parallel_s>,
           "updates_per_sec": <applied update ops / parallel_s; omitted
                               for experiments that don't report volume>,
           "phases": { "apply": { "count": <spans>, "seconds": <host s>,
                                  "alloc_bytes": <GC-allocated bytes> },
                       ... },   -- from the profiled run, zero phases
                                   omitted
           "peak_heap_bytes": <peak major-heap size observed *during*
                               this experiment's four runs, sampled at
                               every major-cycle end by a GC alarm on
                               the main domain>,
           "identical_output": true },
         ...
       ],
       "total": { "sequential_s": ..., "parallel_s": ..., "traced_s": ...,
                  "profiled_s": ..., "speedup": ..., "trace_overhead": ... },
       "runs": [ { "at": <unix seconds>, "scale": ..., "domains": ...,
                   "experiments": [...], "total": {...} }, ... ]
     }

   The top-level scale/domains/experiments/total mirror the latest run;
   "runs" is the append-only history (oldest first, capped at
   [max_history]), each entry stamped with the wall-clock "at" of its
   sweep.  Only a v6 file's history is carried over; any other file
   starts a fresh history.  After the sweep the summary prints a delta
   line against the previous *comparable* run — same --scale and same
   requested domain count; comparing against a different tier would
   only measure the tier.  With ESR_BENCH_GATE=1 the sweep additionally
   *fails* (exit 4) when total parallel wall-clock regresses by more
   than 20% against that comparable run, or any experiment's
   updates/sec drops by more than 20% — CI runs the sweep twice into a
   scratch file so the gate compares like with like on the same
   machine.
*)

module Tablefmt = Esr_util.Tablefmt
module Json = Esr_util.Json
module Pool = Esr_exec.Pool
module Obs = Esr_obs.Obs
module Prof = Esr_obs.Prof

type sample = {
  name : string;
  sequential_s : float;
  parallel_s : float;
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
   pool — and the tracing instrumentation — preserve determinism. *)
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

let speedup ~seq ~par = if par > 0.0 then seq /. par else 0.0

let max_history = 25

(* --- run history --- *)

(* One run rendered as a Json value, shared by the top-level mirror and
   the history entry. *)
let run_json ?at ~par_domains samples =
  let tot_seq = List.fold_left (fun a s -> a +. s.sequential_s) 0.0 samples in
  let tot_par = List.fold_left (fun a s -> a +. s.parallel_s) 0.0 samples in
  let tot_tr = List.fold_left (fun a s -> a +. s.traced_s) 0.0 samples in
  let tot_pr = List.fold_left (fun a s -> a +. s.profiled_s) 0.0 samples in
  let experiment s =
    let phase (name, (a : Prof.agg)) =
      ( name,
        Json.Obj
          [
            ("count", Json.Num (float_of_int a.Prof.count));
            ("seconds", Json.Num a.Prof.seconds);
            ("alloc_bytes", Json.Num a.Prof.alloc_bytes);
          ] )
    in
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("sequential_s", Json.Num s.sequential_s);
         ("parallel_s", Json.Num s.parallel_s);
         ("traced_s", Json.Num s.traced_s);
         ("profiled_s", Json.Num s.profiled_s);
         ("speedup", Json.Num (speedup ~seq:s.sequential_s ~par:s.parallel_s));
         ("trace_overhead", Json.Num (speedup ~seq:s.traced_s ~par:s.parallel_s));
         ("profile_overhead", Json.Num (speedup ~seq:s.profiled_s ~par:s.parallel_s));
       ]
      (* Only experiments that measure volume carry throughput: a 0 here
         used to mean "unmeasured" but read as a measurement of zero;
         omit the field instead. *)
      @ (if s.updates_per_sec > 0.0 then
           [ ("updates_per_sec", Json.Num s.updates_per_sec) ]
         else [])
      @ [
          ("phases", Json.Obj (List.map phase s.phases));
          ("peak_heap_bytes", Json.Num s.peak_heap_bytes);
          ("identical_output", Json.Bool s.identical);
        ])
  in
  let total =
    Json.Obj
      [
        ("sequential_s", Json.Num tot_seq);
        ("parallel_s", Json.Num tot_par);
        ("traced_s", Json.Num tot_tr);
        ("profiled_s", Json.Num tot_pr);
        ("speedup", Json.Num (speedup ~seq:tot_seq ~par:tot_par));
        ("trace_overhead", Json.Num (speedup ~seq:tot_tr ~par:tot_par));
      ]
  in
  let fields =
    [
      ("scale", Json.Num !Experiments.scale);
      ( "domains",
        Json.Obj
          [ ("sequential", Json.Num 1.0);
            ("parallel", Json.Num (float_of_int par_domains));
            (* What the run asked for vs what the machine has: the pool
               defaults to cores-1, but ESR_DOMAINS/--domains can request
               more workers than cores, and a 1-core container can never
               show a speedup — the file records enough to tell. *)
            ("requested", Json.Num (float_of_int par_domains));
            ( "physical_cores",
              Json.Num (float_of_int (Domain.recommended_domain_count ())) )
          ] );
      ("experiments", Json.Arr (List.map experiment samples));
      ("total", total);
    ]
  in
  match at with
  | Some t -> Json.Obj (("at", Json.Num t) :: fields)
  | None -> Json.Obj fields

(* The run history of the trajectory file already on disk (oldest
   first).  A missing, unreadable or non-v6 file is no history rather
   than an error, since the bench must still run on a fresh checkout. *)
let read_history path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Json.parse text with
    | Error _ -> []
    | Ok doc -> (
        match Option.bind (Json.member "schema" doc) Json.to_string with
        | Some "esr-bench-experiments/6" ->
            Option.value ~default:[]
              (Option.bind (Json.member "runs" doc) Json.to_list)
        | _ -> [])

(* Satellite of the regression gate: a prior run is only comparable when
   it was recorded at the same --scale and the same requested domain
   count — a 2% smoke baseline must never gate a full-scale run (or vice
   versa), and a 1-domain run must never gate an 8-domain one. *)
let comparable ~scale ~requested entry =
  let scale_of =
    Option.bind (Json.member "scale" entry) Json.to_float
  in
  let requested_of =
    Option.bind (Json.member "domains" entry) (fun d ->
        Option.bind (Json.member "requested" d) Json.to_float)
  in
  match (scale_of, requested_of) with
  | Some s, Some r ->
      Float.abs (s -. scale) < 1e-9 && int_of_float r = requested
  | _ -> false

(* Newest comparable entry, if any (history is oldest first). *)
let last_comparable ~scale ~requested history =
  List.fold_left
    (fun acc e -> if comparable ~scale ~requested e then Some e else acc)
    None history

(* Per-experiment (parallel_s, traced_s, updates_per_sec) of a history
   entry, for deltas; an experiment without a throughput field reads 0. *)
let run_times entry =
  match Option.bind (Json.member "experiments" entry) Json.to_list with
  | None -> []
  | Some exps ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Json.member "name" e) Json.to_string,
              Option.bind (Json.member "parallel_s" e) Json.to_float,
              Option.bind (Json.member "traced_s" e) Json.to_float )
          with
          | Some name, Some par, Some tr ->
              let ups =
                Option.value ~default:0.0
                  (Option.bind (Json.member "updates_per_sec" e) Json.to_float)
              in
              Some (name, (par, tr, ups))
          | _ -> None)
        exps

(* Print how this sweep moved against the previous run: the total, plus
   any experiment whose parallel wall-clock shifted by more than 10% (and
   at least a millisecond, so the tiny a2-style microbenches don't flap). *)
let print_delta ~previous samples =
  let prev = run_times previous in
  let prev_total = List.fold_left (fun a (_, (p, _, _)) -> a +. p) 0.0 prev in
  let cur_total = List.fold_left (fun a s -> a +. s.parallel_s) 0.0 samples in
  let pct cur old = (cur -. old) /. old *. 100.0 in
  if prev_total > 0.0 then begin
    Printf.printf "delta vs previous run: total parallel %.3fs -> %.3fs (%+.1f%%)\n"
      prev_total cur_total (pct cur_total prev_total);
    List.iter
      (fun s ->
        match List.assoc_opt s.name prev with
        | Some (old_par, _, _)
          when old_par > 0.0
               && Float.abs (s.parallel_s -. old_par) > 0.001
               && Float.abs (pct s.parallel_s old_par) > 10.0 ->
            Printf.printf "  %-20s %.3fs -> %.3fs (%+.1f%%)\n" s.name old_par
              s.parallel_s (pct s.parallel_s old_par)
        | _ -> ())
      samples;
    (* Throughput deltas for the experiments that report volume (E15). *)
    List.iter
      (fun s ->
        if s.updates_per_sec > 0.0 then
          match List.assoc_opt s.name prev with
          | Some (_, _, old_ups) when old_ups > 0.0 ->
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
   parallel wall-clock, or by any experiment's reported updates/sec.
   Meant for two back-to-back sweeps on the same machine; gating against
   a file produced on different hardware would only measure the
   hardware. *)
let gate_regression ~previous samples =
  let prev = run_times previous in
  let prev_total = List.fold_left (fun a (_, (p, _, _)) -> a +. p) 0.0 prev in
  let cur_total = List.fold_left (fun a s -> a +. s.parallel_s) 0.0 samples in
  let failures = ref [] in
  if prev_total > 0.0 && cur_total > prev_total *. 1.20 then
    failures :=
      Printf.sprintf "total parallel wall-clock %.3fs -> %.3fs (>+20%%)"
        prev_total cur_total
      :: !failures;
  List.iter
    (fun s ->
      match List.assoc_opt s.name prev with
      | Some (_, _, old_ups)
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

let write_json ~path ~par_domains ~history samples =
  let latest = run_json ~par_domains samples in
  let entry = run_json ~at:(Unix.time ()) ~par_domains samples in
  let runs = history @ [ entry ] in
  let runs =
    let drop = List.length runs - max_history in
    if drop > 0 then List.filteri (fun i _ -> i >= drop) runs else runs
  in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"esr-bench-experiments/6\",\n";
  (match latest with
  | Json.Obj fields ->
      List.iter
        (fun (k, v) -> p "  %S: %s,\n" k (Json.render v))
        fields
  | _ -> assert false);
  p "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      p "    %s%s\n" (Json.render r)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  p "  ]\n";
  p "}\n";
  close_out oc

let default_path () =
  Option.value (Sys.getenv_opt "ESR_BENCH_OUT") ~default:"BENCH_experiments.json"

(** Time every experiment sequentially, on the pool, and on the pool with
    tracing enabled; print the summary table, and write
    [BENCH_experiments.json] (path overridable with the ESR_BENCH_OUT
    environment variable). *)
let run_timed ?path () =
  let path = match path with Some p -> p | None -> default_path () in
  let par_domains = Pool.default_domains () in
  let samples =
    List.map
      (fun (name, f) ->
        (* Per-experiment peak heap (schema v6): the GC's top_heap_words
           is a process-wide high-water that never resets, so the old
           after-each-experiment sample recorded every experiment past
           the first big one at the same monotone value.  Instead watch
           the major heap while *this* experiment's four runs execute: a
           GC alarm samples the heap size at every major-cycle end on
           the main domain, and the max is this experiment's peak. *)
        let heap_peak = ref 0 in
        let sample_heap () =
          let h = (Gc.quick_stat ()).Gc.heap_words in
          if h > !heap_peak then heap_peak := h
        in
        sample_heap ();
        let heap_alarm = Gc.create_alarm sample_heap in
        Pool.set_default_domains 1;
        ignore (Experiments.take_applied ());
        let sequential_s, out_seq = timed_captured f in
        ignore (Experiments.take_applied ());
        Pool.set_default_domains par_domains;
        let parallel_s, out_par = timed_captured f in
        (* Applied update-op volume reported by the experiment (E15 does;
           most experiments report nothing and land at 0).  Taken from
           the *parallel* run: that is the configuration users run. *)
        let applied = Experiments.take_applied () in
        let updates_per_sec =
          if parallel_s > 0.0 then float_of_int applied /. parallel_s else 0.0
        in
        (* Third run: same parallel pool, with every harness recording a
           full event trace.  The printed tables must not change — the
           capture is byte-compared below — so the delta is the pure cost
           of the instrumentation. *)
        Obs.set_default_tracing true;
        let traced_s, out_traced =
          Fun.protect
            ~finally:(fun () -> Obs.set_default_tracing false)
            (fun () -> timed_captured f)
        in
        ignore (Experiments.take_applied ());
        (* Fourth run: the host-time phase profiler on in every harness.
           Same byte-compare discipline; the per-phase totals land in the
           JSON as this experiment's wall-clock/allocation breakdown.
           [reset_totals] scopes the process-wide aggregation to this
           experiment (worker-domain harnesses included — the pool joins
           its workers before [timed_captured] returns). *)
        Obs.set_default_profiling true;
        Prof.reset_totals ();
        let profiled_s, out_profiled =
          Fun.protect
            ~finally:(fun () -> Obs.set_default_profiling false)
            (fun () -> timed_captured f)
        in
        let phases =
          List.filter_map
            (fun (p, (a : Prof.agg)) ->
              if a.Prof.count > 0 then Some (Prof.phase_name p, a) else None)
            (Prof.totals ())
        in
        Prof.reset_totals ();
        ignore (Experiments.take_applied ());
        Gc.delete_alarm heap_alarm;
        sample_heap ();
        let peak_heap_bytes =
          float_of_int (!heap_peak * (Sys.word_size / 8))
        in
        let identical =
          String.equal out_seq out_par
          && String.equal out_par out_traced
          && String.equal out_par out_profiled
        in
        {
          name; sequential_s; parallel_s; traced_s; profiled_s;
          updates_per_sec; phases; peak_heap_bytes; identical;
        })
      Experiments.all
  in
  Pool.set_default_domains par_domains;
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Timed experiment sweep: wall-clock, 1 domain vs %d domains, \
            plus traced and profiled runs on %d domains (output \
            byte-compared between all four runs)"
           par_domains par_domains)
      ~headers:
        [
          "Experiment";
          "Sequential (s)";
          "Parallel (s)";
          "Traced (s)";
          "Profiled (s)";
          "Speedup";
          "Trace cost";
          "Prof cost";
          "Upd/s";
          "Peak heap (MB)";
          "Identical output";
        ]
  in
  List.iter
    (fun s ->
      Tablefmt.add_row t
        [
          s.name;
          Printf.sprintf "%.3f" s.sequential_s;
          Printf.sprintf "%.3f" s.parallel_s;
          Printf.sprintf "%.3f" s.traced_s;
          Printf.sprintf "%.3f" s.profiled_s;
          Printf.sprintf "%.2fx" (speedup ~seq:s.sequential_s ~par:s.parallel_s);
          Printf.sprintf "%.2fx" (speedup ~seq:s.traced_s ~par:s.parallel_s);
          Printf.sprintf "%.2fx" (speedup ~seq:s.profiled_s ~par:s.parallel_s);
          (if s.updates_per_sec > 0.0 then
             Printf.sprintf "%.0f" s.updates_per_sec
           else "-");
          Printf.sprintf "%.1f" (s.peak_heap_bytes /. (1024.0 *. 1024.0));
          Tablefmt.cell_bool s.identical;
        ])
    samples;
  Tablefmt.add_separator t;
  let tot_seq = List.fold_left (fun a s -> a +. s.sequential_s) 0.0 samples in
  let tot_par = List.fold_left (fun a s -> a +. s.parallel_s) 0.0 samples in
  let tot_tr = List.fold_left (fun a s -> a +. s.traced_s) 0.0 samples in
  let tot_pr = List.fold_left (fun a s -> a +. s.profiled_s) 0.0 samples in
  Tablefmt.add_row t
    [
      "total";
      Printf.sprintf "%.3f" tot_seq;
      Printf.sprintf "%.3f" tot_par;
      Printf.sprintf "%.3f" tot_tr;
      Printf.sprintf "%.3f" tot_pr;
      Printf.sprintf "%.2fx" (speedup ~seq:tot_seq ~par:tot_par);
      Printf.sprintf "%.2fx" (speedup ~seq:tot_tr ~par:tot_par);
      Printf.sprintf "%.2fx" (speedup ~seq:tot_pr ~par:tot_par);
      "-";
      (match samples with
      | [] -> "-"
      | _ ->
          Printf.sprintf "%.1f"
            (List.fold_left
               (fun a s -> Float.max a s.peak_heap_bytes)
               0.0 samples
            /. (1024.0 *. 1024.0)));
      Tablefmt.cell_bool (List.for_all (fun s -> s.identical) samples);
    ];
  Tablefmt.print t;
  let history = read_history path in
  let previous =
    last_comparable ~scale:!Experiments.scale ~requested:par_domains history
  in
  (match previous with
  | Some previous -> print_delta ~previous samples
  | None ->
      if history <> [] then
        Printf.printf
          "no comparable previous run (same --scale and domain count); \
           delta and gate skipped\n");
  write_json ~path ~par_domains ~history samples;
  Printf.printf "wrote %s (%d runs in history)\n" path
    (Stdlib.min max_history (List.length history + 1));
  if not (List.for_all (fun s -> s.identical) samples) then begin
    prerr_endline
      "timed sweep: parallel/traced/profiled output diverged from sequential";
    exit 3
  end;
  match (Sys.getenv_opt "ESR_BENCH_GATE", previous) with
  | Some ("1" | "true"), Some previous -> gate_regression ~previous samples
  | _ -> ()
