(* Tests for the esr_bench library: the table generators and the
   cheapest experiments must run without raising (their numeric content
   is validated by the unit/integration suites; here we guard the
   generators themselves, which dune runtest would otherwise never
   execute), and the timed sweep's run history must read back what the
   sweep wrote and refuse a file it cannot read. *)

let run_silently f () =
  (* The generators print their tables; divert stdout so test output
     stays readable. *)
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  let finish () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close devnull
  in
  (try f ()
   with exn ->
     finish ();
     raise exn);
  finish ()

(* --- the timed sweep's run history --- *)

module Timing = Esr_bench.Timing

let checki name = Alcotest.(check int) name

let times history = List.map (fun (p : Timing.past) -> p.Timing.times) history

let history_ok text =
  match Timing.history_of_string text with
  | Ok h -> h
  | Error m -> Alcotest.failf "history rejected: %s" m

let history_error text =
  match Timing.history_of_string text with
  | Ok _ -> Alcotest.fail "history accepted"
  | Error m -> m

let v7 ~experiment =
  Printf.sprintf
    {|{"schema":"esr-bench-experiments/7","scale":1,
"runs":[{"at":1,"scale":1,"experiments":[%s],"total":{"wall_s":0.5}}]}|}
    experiment

let test_history_round_trip () =
  let path = Filename.temp_file "esr_bench" ".json" in
  Sys.remove path;
  let read () =
    match Timing.read_history path with
    | Ok h -> h
    | Error m -> Alcotest.failf "read_history: %s" m
  in
  checki "a missing file is no history" 0 (List.length (read ()));
  let sample =
    {
      Timing.name = "e1_scalability";
      wall_s = 0.25;
      traced_s = 0.5;
      profiled_s = 0.75;
      updates_per_sec = 0.0;
      phases = [];
      peak_heap_bytes = 1024.0;
      identical = true;
    }
  in
  checki "first run" 1 (Timing.write_json ~path ~history:(read ()) [ sample ]);
  checki "second run" 2
    (Timing.write_json ~path ~history:(read ())
       [ { sample with wall_s = 0.5; updates_per_sec = 100.0 } ]);
  let h = read () in
  Sys.remove path;
  Alcotest.(check (list (list (pair string (pair (float 0.0) (float 0.0))))))
    "wall_s and updates/sec of both runs"
    [ [ ("e1_scalability", (0.25, 0.0)) ]; [ ("e1_scalability", (0.5, 100.0)) ] ]
    (times h)

let test_history_flipped_byte () =
  let doc = v7 ~experiment:{|{"name":"e1","wall_s":0.5}|} in
  checki "the intact document reads" 1 (List.length (history_ok doc));
  let i = String.index doc ':' in
  let flipped =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) doc
  in
  ignore (history_error flipped)

let test_history_missing_wall () =
  Alcotest.(check string) "the error names the field"
    "runs[0].experiments[0].wall_s: missing"
    (history_error (v7 ~experiment:{|{"name":"e1","traced_s":0.5}|}))

let test_history_other_schema () =
  let v6 =
    {|{"schema":"esr-bench-experiments/6","scale":1,
"runs":[{"at":1,"scale":1,"domains":{"requested":1},
"experiments":[{"name":"e1","sequential_s":0.5,"parallel_s":0.5}]}]}|}
  in
  checki "a v6 document is no history" 0 (List.length (history_ok v6))

let test_history_directory () =
  let dir = Filename.temp_dir "esr_bench" "" in
  let result = Timing.read_history dir in
  Sys.rmdir dir;
  match result with
  | Ok _ -> Alcotest.fail "a directory read as a history"
  | Error m -> Alcotest.(check string) "the error says why" "Is a directory" m

let () =
  Alcotest.run "esr_bench"
    [
      ( "generators",
        [
          Alcotest.test_case "paper tables" `Quick
            (run_silently Esr_bench.Tables.run_all);
          Alcotest.test_case "a2 squeue ablation" `Quick
            (run_silently (fun () ->
                 match List.assoc_opt "a2_squeue_retry" Esr_bench.Experiments.all with
                 | Some f -> f ()
                 | None -> Alcotest.fail "a2 target missing"));
          Alcotest.test_case "e12 partition merge" `Slow
            (run_silently (fun () ->
                 match
                   List.assoc_opt "e12_partition_merge" Esr_bench.Experiments.all
                 with
                 | Some f -> f ()
                 | None -> Alcotest.fail "e12 target missing"));
        ] );
      ( "history",
        [
          Alcotest.test_case "written runs read back" `Quick
            test_history_round_trip;
          Alcotest.test_case "a flipped byte is an error" `Quick
            test_history_flipped_byte;
          Alcotest.test_case "a run without wall_s names the field" `Quick
            test_history_missing_wall;
          Alcotest.test_case "a v6 document is no history" `Quick
            test_history_other_schema;
          Alcotest.test_case "a directory is an error" `Quick
            test_history_directory;
        ] );
    ]
