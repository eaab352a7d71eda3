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

   The scale tiers E15-E18 shrink or grow with --scale F (or ESR_SCALE).
   --profile turns on the host-time/allocation phase profiler in every
   harness the experiments create (e16_soak then also writes per-method
   profile dumps when ESR_SOAK_DIR is set).  Tables are byte-identical
   in either profiling state. *)

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

(* The scale factor of --scale or ESR_SCALE: a finite positive number. *)
let set_scale ~source s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f > 0.0 -> Esr_bench.Experiments.scale := f
  | Some _ | None ->
      Printf.eprintf "%s expects a finite positive number, got %S\n" source s;
      exit 1

(* Strip --scale F / --profile anywhere in the argument list; remaining
   arguments are target names. *)
let rec parse_args = function
  | "--profile" :: rest ->
      Esr_obs.Obs.default_profiling := true;
      parse_args rest
  | "--scale" :: f :: rest ->
      set_scale ~source:"--scale" f;
      parse_args rest
  | [ "--scale" ] ->
      prerr_endline "--scale expects a finite positive number";
      exit 1
  | x :: rest -> x :: parse_args rest
  | [] -> []

let main () =
  Option.iter (set_scale ~source:"ESR_SCALE") (Sys.getenv_opt "ESR_SCALE");
  match parse_args (List.tl (Array.to_list Sys.argv)) with
  | [] ->
      print_endline
        "Replica Control in Distributed Systems: An Asynchronous Approach \
         (Pu & Leff, 1991)";
      print_endline
        "Reproduction bench harness - all tables, experiments, microbenches.";
      print_newline ();
      List.iter (fun (_, f) -> f ()) targets
  | [ "list" ] -> list_targets ()
  | args -> List.iter run_target args

(* A file a target cannot open or write (ESR_SOAK_DIR under a missing
   directory, a BENCH_experiments.json path that cannot be written) ends
   the run with one line naming the path. *)
let () =
  try main ()
  with Sys_error m ->
    Printf.eprintf "bench: %s\n" m;
    exit 1
