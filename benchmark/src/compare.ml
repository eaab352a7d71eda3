(* esrbench compare BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

   For every workload in both files and every metric BENCHMARK.json
   names: both sides' medians and quartiles, each side's share of wins
   over index-aligned pairs of runs, and a verdict against the metric's
   bound.  Host times are only comparable when the runs simulated the
   same thing, so a workload whose parameters differ, or whose runs of a
   common seed disagree on [model_digest], is refused instead. *)

module J = Esr_util.Json

type run = {
  workload : string;
  params : string;
  seed : int;
  digest : string;
  metrics : (string * float) list;
}

type spec = { name : string; lower_better : bool; bound : float option }

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Util.usage "cannot read %s: %s" path e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let field path name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> v
  | None -> Util.usage "%s: missing or malformed %S" path name

let read_runs path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         let j =
           match J.parse l with
           | Ok j -> j
           | Error e -> Util.usage "%s: not a result line: %s" path e
         in
         let metrics =
           match J.member "metrics" j with
           | Some (J.Obj kvs) ->
               List.filter_map
                 (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.to_float))
                 kvs
           | _ -> Util.usage "%s: a line has no metrics object" path
         in
         {
           workload = field path "workload" J.to_string j;
           params =
             (match J.member "params" j with
             | Some p -> J.render p
             | None -> Util.usage "%s: a line has no params" path);
           seed = field path "seed" J.to_int j;
           digest = field path "model_digest" J.to_string j;
           metrics;
         })

let read_spec path =
  let j =
    match J.parse (read_file path) with
    | Ok j -> j
    | Error e -> Util.usage "%s: %s" path e
  in
  let section key =
    match Option.bind (J.member key j) J.to_list with
    | Some xs ->
        List.map
          (fun x ->
            {
              name = field path "name" J.to_string x;
              lower_better = field path "better" J.to_string x = "lower";
              bound = Option.bind (J.member "bound" x) J.to_float;
            })
          xs
    | None -> Util.usage "%s: no %S list" path key
  in
  section "end_to_end" @ section "per_layer"

let better s a b = if s.lower_better then a < b else a > b

(* A gain needs the change to win at least 9 pairs in 10 and its median
   to move by more than the base's own quartile spread.  Otherwise, when
   either side's spread exceeds the bound the metric is unresolved
   (unless every change run beats every base run), and worse when the
   median moved the wrong way by more than the bound. *)
let verdict s bound ~base ~change ~change_wins =
  let b1, bm, b3 = Util.quartiles base and c1, cm, c3 = Util.quartiles change in
  let spread q1 q3 m = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
  let worse_by =
    let d = if s.lower_better then cm -. bm else bm -. cm in
    if bm <> 0.0 then d /. Float.abs bm
    else if d > 0.0 then infinity
    else if d < 0.0 then neg_infinity
    else 0.0
  in
  let dominates =
    List.for_all (fun c -> List.for_all (fun b -> better s c b) base) change
  in
  if worse_by < 0.0 && change_wins >= 0.9 && Float.abs (cm -. bm) > b3 -. b1 then "better"
  else if spread b1 b3 bm > bound || spread c1 c3 cm > bound then
    if dominates then "unchanged" else "unresolved"
  else if worse_by > bound then "worse"
  else "unchanged"

let compare_workload specs w base change =
  let params = List.sort_uniq compare (List.map (fun r -> r.params) (base @ change)) in
  let digest_clash =
    List.exists
      (fun b -> List.exists (fun c -> c.seed = b.seed && c.digest <> b.digest) change)
      base
  in
  if List.length params > 1 then begin
    Printf.printf "%s: refused, workload parameters differ\n" w;
    false
  end
  else if digest_clash then begin
    Printf.printf "%s: refused, model_digest differs for a common seed\n" w;
    false
  end
  else
    List.fold_left
      (fun ok s ->
        let values side = List.filter_map (fun r -> List.assoc_opt s.name r.metrics) side in
        let bv = values base and cv = values change in
        if bv = [] || cv = [] then ok
        else begin
          let rec pairs a b =
            match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []
          in
          let ps = pairs bv cv in
          let n = float_of_int (List.length ps) in
          let wins f = float_of_int (List.length (List.filter f ps)) /. n in
          let change_wins = wins (fun (b, c) -> better s c b) in
          let base_wins = wins (fun (b, c) -> better s b c) in
          let v =
            match s.bound with
            | Some bound -> verdict s bound ~base:bv ~change:cv ~change_wins
            | None -> "-"
          in
          let q xs =
            let q1, m, q3 = Util.quartiles xs in
            Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
          in
          Printf.printf "%-15s %-34s %-38s %-38s %5.2f %5.2f  %s\n" w s.name (q bv) (q cv)
            base_wins change_wins v;
          ok && v <> "worse" && v <> "unresolved"
        end)
      true specs

let main args =
  let spec_path = ref "BENCHMARK.json" in
  let rec go acc = function
    | "--spec" :: p :: rest ->
        spec_path := p;
        go acc rest
    | [ "--spec" ] -> Util.usage "--spec needs a value"
    | a :: rest -> go (a :: acc) rest
    | [] -> List.rev acc
  in
  match go [] args with
  | [ base_path; change_path ] ->
      let specs = read_spec !spec_path in
      let base = read_runs base_path and change = read_runs change_path in
      let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) base) in
      Printf.printf "%-15s %-34s %-38s %-38s %5s %5s  %s\n" "workload" "metric"
        "base median [q1, q3]" "change median [q1, q3]" "base" "chg" "verdict";
      let ok =
        List.fold_left
          (fun ok w ->
            let side rs = List.filter (fun r -> r.workload = w) rs in
            match side change with
            | [] -> ok
            | c -> compare_workload specs w (side base) c && ok)
          true workloads
      in
      if ok then 0 else 1
  | _ -> Util.usage "compare takes BASE.jsonl and CHANGE.jsonl"
