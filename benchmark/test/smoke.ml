(* Smoke test of esrbench, run by [dune runtest]: every workload at
   --scale 0.02, checking that

   - the emitted metric names and units are exactly those BENCHMARK.json
     declares (end-to-end untraced, per-layer traced);
   - every correctness check passes and no operation fails;
   - the untraced run, the traced run and a repeated same-seed run agree
     on model_digest and on every count;
   - a second seed changes the digest but not the fault plan;
   - malformed command lines exit 2 with a usage message, and compare
     refuses runs whose digests disagree. *)

module J = Esr_util.Json

let exe = Sys.argv.(1)
let spec_path = Sys.argv.(2)
let checks = ref 0
let failures = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n%!" name;
    incr failures
  end

let read_file f = In_channel.with_open_bin f In_channel.input_all

let lines f =
  String.split_on_char '\n' (read_file f) |> List.filter (fun l -> l <> "")

let run args =
  let out = Filename.temp_file ~temp_dir:"." "esrbench" ".out" in
  let err = Filename.temp_file ~temp_dir:"." "esrbench" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let result = (code, lines out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let json s = match J.parse s with Ok j -> j | Error e -> failwith e
let get k j = match J.member k j with Some v -> v | None -> failwith ("no " ^ k)
let str k j = Option.get (J.to_string (get k j))
let items k j = Option.get (J.to_list (get k j))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let spec = json (read_file spec_path)

let declared section =
  List.sort compare (List.map (fun m -> (str "name" m, str "unit" m)) (items section spec))

let emitted result =
  match get "metrics" result with
  | J.Obj kvs -> List.sort compare (List.map (fun (k, v) -> (k, str "unit" v)) kvs)
  | _ -> []

let last = function [] -> J.Null | l -> json (List.nth l (List.length l - 1))

let smoke w =
  let out = Printf.sprintf "smoke_%s.jsonl" w in
  if Sys.file_exists out then Sys.remove out;
  let run_seed seed trace =
    run
      [ "run"; "--workload"; w; "--seed"; seed; "--trace"; trace; "--scale"; "0.02";
        "--seconds"; "0.05"; "--out"; out ]
  in
  let traced = run_seed "1" "1" in
  let again = run_seed "1" "0" in
  let results = [ traced; again; run_seed "2" "0" ] in
  List.iteri
    (fun i (code, stdout, _) ->
      let r = last stdout in
      let name = Printf.sprintf "%s run %d" w i in
      check (name ^ " exits 0") (code = 0);
      check (name ^ " is correct")
        (J.member "correct" r = Some (J.Bool true) && J.member "failed" r = Some (J.Num 0.0));
      check (name ^ " metric names and units")
        (emitted r = declared (if i = 0 then "per_layer" else "end_to_end")))
    results;
  match List.map json (lines out) with
  | [ traced; again; other ] ->
      let same k a b = J.render (get k a) = J.render (get k b) in
      check (w ^ " traced digest = untraced")
        (str "model_digest" traced = str "traced_model_digest" traced);
      check (w ^ " traced counts = untraced")
        (J.render (get "counts" traced) = J.render (get "traced_counts" traced));
      check (w ^ " same seed, same digest and counts")
        (same "model_digest" traced again && same "counts" traced again);
      check (w ^ " second seed moves the digest") (not (same "model_digest" traced other));
      check (w ^ " second seed keeps the fault plan")
        (J.member "faults" (get "params" traced) = J.member "faults" (get "params" other));
      (* compare: a run against itself is unchanged; a run whose digest
         disagrees for the same seed is refused. *)
      let write f l = Out_channel.with_open_bin f (fun oc -> output_string oc (J.render l ^ "\n")) in
      write "smoke_base.jsonl" again;
      let tampered =
        match again with
        | J.Obj kvs ->
            J.Obj
              (List.map
                 (fun (k, v) -> if k = "model_digest" then (k, J.Str "tampered") else (k, v))
                 kvs)
        | j -> j
      in
      write "smoke_tampered.jsonl" tampered;
      let code, _, _ =
        run [ "compare"; "smoke_base.jsonl"; "smoke_base.jsonl"; "--spec"; spec_path ]
      in
      check (w ^ " compare: a run against itself passes") (code = 0);
      let code, stdout, _ =
        run [ "compare"; "smoke_base.jsonl"; "smoke_tampered.jsonl"; "--spec"; spec_path ]
      in
      check (w ^ " compare: digest mismatch is refused")
        (code = 1 && List.exists (fun l -> contains l "refused") stdout)
  | l -> check (Printf.sprintf "%s: 3 result lines (got %d)" w (List.length l)) false

let () =
  List.iter (fun w -> smoke (str "name" w)) (items "workloads" spec);
  List.iter
    (fun (name, args) ->
      let code, stdout, stderr = run ("run" :: args) in
      check ("usage error: " ^ name) (code = 2 && stdout = [] && contains stderr "usage:"))
    [
      ("unknown workload", [ "--workload"; "nope"; "--seed"; "1" ]);
      ("non-integer seed", [ "--workload"; "fanout_full"; "--seed"; "1.5" ]);
      ("zero scale", [ "--workload"; "fanout_full"; "--seed"; "1"; "--scale"; "0" ]);
      ("negative scale", [ "--workload"; "fanout_full"; "--seed"; "1"; "--scale"; "-2" ]);
      ( "unwritable --out",
        [ "--workload"; "fanout_full"; "--seed"; "1"; "--out"; "no_such_dir/x.jsonl" ] );
    ];
  Printf.printf "esrbench smoke: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
