(* Bench harness entry point.

   Regenerates every table and worked example of the paper plus the
   quantitative experiments indexed in DESIGN.md / EXPERIMENTS.md, then
   runs the Bechamel microbenchmarks.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- tables       # just the paper tables
     dune exec bench/main.exe -- e2_epsilon   # one experiment
     dune exec bench/main.exe -- micro        # just the microbenches
     dune exec bench/main.exe -- timed        # timed sweep -> BENCH_experiments.json
     dune exec bench/main.exe -- list         # list available targets

   Experiments fan their independent simulation jobs out over an OCaml 5
   domain pool; control the worker count with --domains N (or the
   ESR_DOMAINS environment variable) — the default is the machine's core
   count minus one (min 1).  The E15 scale tier shrinks or grows with
   --scale F (or ESR_SCALE).  --profile turns on the host-time/allocation
   phase profiler in every harness the experiments create (e16_soak then
   also writes per-method profile dumps when ESR_SOAK_DIR is set).
   Tables are byte-identical for any worker count and either profiling
   state. *)

module Pool = Esr_exec.Pool

let targets =
  [ ("tables", Esr_bench.Tables.run_all) ]
  @ Esr_bench.Experiments.all
  @ [
      ("timed", fun () -> Esr_bench.Timing.run_timed ());
      ("micro", Micro.run_all);
    ]

let list_targets () =
  print_endline "available bench targets:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) targets

let run_target name =
  match List.assoc_opt name targets with
  | Some f -> f ()
  | None ->
      Printf.eprintf "unknown bench target %S\n" name;
      list_targets ();
      exit 1

(* Strip --domains N / --scale F / --profile anywhere in the argument
   list; remaining arguments are target names. *)
let rec parse_args = function
  | "--profile" :: rest ->
      Esr_obs.Obs.set_default_profiling true;
      parse_args rest
  | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d when d >= 1 ->
          Pool.set_default_domains d;
          parse_args rest
      | Some _ | None ->
          Printf.eprintf "--domains expects a positive integer, got %S\n" n;
          exit 1)
  | [ "--domains" ] ->
      prerr_endline "--domains expects a positive integer";
      exit 1
  | "--scale" :: f :: rest -> (
      match float_of_string_opt f with
      | Some s when s > 0.0 ->
          Esr_bench.Experiments.set_scale s;
          parse_args rest
      | Some _ | None ->
          Printf.eprintf "--scale expects a positive number, got %S\n" f;
          exit 1)
  | [ "--scale" ] ->
      prerr_endline "--scale expects a positive number";
      exit 1
  | x :: rest -> x :: parse_args rest
  | [] -> []

let () =
  match parse_args (List.tl (Array.to_list Sys.argv)) with
  | [] ->
      print_endline
        "Replica Control in Distributed Systems: An Asynchronous Approach \
         (Pu & Leff, 1991)";
      print_endline
        "Reproduction bench harness - all tables, experiments, microbenches.";
      Printf.printf "(experiment jobs run on %d domain(s); --domains N or \
                     ESR_DOMAINS overrides)\n"
        (Pool.default_domains ());
      print_newline ();
      List.iter (fun (_, f) -> f ()) targets
  | [ "list" ] -> list_targets ()
  | args -> List.iter run_target args
