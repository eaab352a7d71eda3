(* esrbench: the repository benchmark.

     esrbench run --workload W --seed S [--seconds T] [--trace 0|1 | --traced]
                  [--scale F] [--out FILE]
     esrbench compare BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

   [run] prints every metric by name with its unit, appends one JSON line
   to FILE, and ends its output with one JSON line holding [correct],
   [attempted], [failed] and the end-to-end metrics (per-layer metrics
   with [--trace 1]).  It exits 1 when a correctness check fails, and 2
   on a usage error. *)

module J = Esr_util.Json
module W = Workloads

let usage = Util.usage

let usage_text =
  "usage: esrbench run --workload W --seed S [--seconds T] [--trace 0|1 | --traced]\n\
  \                    [--scale F] [--out FILE]\n\
  \       esrbench compare BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]\n\
   workloads: " ^ String.concat ", " W.names ^ "\n"

let positive_float flag v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f && f > 0.0 -> f
  | Some _ | None -> usage "%s must be a positive number, got %S" flag v

type run_opts = {
  workload : W.t;
  seed : int;
  seconds : float;
  traced : bool;
  scale : float;
  out : out_channel option;
}

let parse_run args =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let traced = ref false and scale = ref 1.0 and out = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match W.find v with
        | Some w -> workload := Some w
        | None -> usage "unknown workload %S" v);
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := Some s
        | None -> usage "--seed must be an integer, got %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := positive_float "--seconds" v;
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> traced := false
        | "1" -> traced := true
        | _ -> usage "--trace must be 0 or 1, got %S" v);
        go rest
    | "--traced" :: rest ->
        traced := true;
        go rest
    | "--scale" :: v :: rest ->
        scale := positive_float "--scale" v;
        go rest
    | "--out" :: v :: rest ->
        (match
           open_out_gen [ Open_wronly; Open_append; Open_creat; Open_text ] 0o644 v
         with
        | oc -> out := Some oc
        | exception Sys_error e -> usage "cannot write --out %s: %s" v e);
        go rest
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--scale" | "--out") as f ]
      ->
        usage "%s needs a value" f
    | a :: _ -> usage "unexpected argument %S" a
  in
  go args;
  match (!workload, !seed) with
  | None, _ -> usage "--workload is required"
  | _, None -> usage "--seed is required"
  | Some workload, Some seed ->
      { workload; seed; seconds = !seconds; traced = !traced; scale = !scale; out = !out }

let metrics_json ms =
  J.Obj
    (List.map
       (fun (x : Session.metric) ->
         (x.Session.name, J.Obj [ ("value", J.Num x.Session.value); ("unit", J.Str x.Session.unit) ]))
       ms)

let run_cmd args =
  let o = parse_run args in
  let s =
    Session.execute o.workload ~seed:o.seed ~scale:o.scale ~seconds:o.seconds
      ~traced:o.traced
  in
  let e2e = Session.end_to_end s and layers = Session.per_layer s in
  Printf.printf "workload %s  seed %d  scale %g  rounds %d  model_digest %s\n"
    o.workload.W.name o.seed o.scale (List.length s.Session.rounds)
    (Session.model_digest s);
  List.iter
    (fun (x : Session.metric) ->
      Printf.printf "  %-36s %16s %s\n" x.Session.name
        (J.float_repr x.Session.value) x.Session.unit)
    (e2e @ layers);
  List.iter (fun f -> Printf.eprintf "esrbench: check failed: %s\n" f) s.Session.failures;
  let num i = J.Num (float_of_int i) in
  let counts =
    J.Obj (List.map (fun (k, v) -> (k, num v)) (Session.counts (Session.first s)))
  in
  (match o.out with
  | None -> ()
  | Some oc ->
      let line =
        J.Obj
          ([
             ("schema", J.Str "esrbench/1");
             ("workload", J.Str o.workload.W.name);
             ("params", W.params o.workload ~scale:o.scale);
             ("seed", num o.seed);
             ("traced", J.Bool o.traced);
             ("git_revision", J.Str (Util.git_revision ()));
             ("ocaml_version", J.Str Sys.ocaml_version);
             ("nproc", num (Domain.recommended_domain_count ()));
             ("rounds", num (List.length s.Session.rounds));
             ( "round_wall_s",
               J.Arr
                 (List.map
                    (fun r -> J.Num (Util.seconds (Session.total Session.wall_ns r)))
                    s.Session.rounds) );
             ("model_digest", J.Str (Session.model_digest s));
             ("counts", counts);
           ]
          @ (match s.Session.traced with
            | Some (r, _) ->
                [
                  ("traced_model_digest", J.Str (Session.digest r));
                  ( "traced_counts",
                    J.Obj (List.map (fun (k, v) -> (k, num v)) (Session.counts r)) );
                ]
            | None -> [])
          @ [
              ("correct", J.Bool (Session.correct s));
              ("attempted", num (Session.attempted s));
              ("failed", num (Session.failed s));
              ("failures", J.Arr (List.map (fun f -> J.Str f) s.Session.failures));
              ("metrics", metrics_json (e2e @ layers));
            ])
      in
      output_string oc (J.render line);
      output_char oc '\n';
      close_out oc);
  print_endline
    (J.render
       (J.Obj
          [
            ("correct", J.Bool (Session.correct s));
            ("attempted", num (Session.attempted s));
            ("failed", num (Session.failed s));
            ("metrics", metrics_json (if o.traced then layers else e2e));
          ]));
  if Session.correct s then 0 else 1

let () =
  let code =
    try
      match Array.to_list Sys.argv with
      | _ :: "run" :: args -> run_cmd args
      | _ :: "compare" :: args -> Compare.main args
      | _ :: ("-h" | "--help" | "help") :: _ ->
          print_string usage_text;
          0
      | _ -> usage "expected a command: run or compare"
    with
    | Util.Usage msg ->
        Printf.eprintf "esrbench: %s\n%s%!" msg usage_text;
        2
    | e ->
        Printf.eprintf "esrbench: %s\n%!" (Printexc.to_string e);
        1
  in
  exit code
