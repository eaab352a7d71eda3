type counter = { mutable c : float }

type histogram = {
  limits : float array;
  counts : int array;  (* length = Array.length limits + 1 (overflow) *)
  mutable sum : float;
  mutable count : int;
}

type source =
  | Counter_s of counter
  | Gauge_s of (unit -> float)
  | Histogram_s of histogram

type reg = { r_group : string; r_name : string; r_site : int option; src : source }

(* Registrations in reverse order; snapshot reverses back.  Registration
   happens a handful of times per run, so a list is plenty.  [snapshots]
   counts materializations, so gauges that share one read ({!gauges_fn})
   can tell a new snapshot from the one they already read for. *)
type t = { mutable regs : reg list; mutable snapshots : int }

let create () = { regs = []; snapshots = 0 }

let register t ~group ~site name src =
  t.regs <- { r_group = group; r_name = name; r_site = site; src } :: t.regs

let counter t ~group ?site name =
  let c = { c = 0.0 } in
  register t ~group ~site name (Counter_s c);
  c

let incr c = c.c <- c.c +. 1.0
let add c v = c.c <- c.c +. v
let value c = c.c

let gauge_fn t ~group ?site name f = register t ~group ~site name (Gauge_s f)

let gauges_fn t ~group ?site read gauges =
  let last = ref None in
  let value () =
    match !last with
    | Some (n, v) when n = t.snapshots -> v
    | _ ->
        let v = read () in
        last := Some (t.snapshots, v);
        v
  in
  List.iter
    (fun (name, field) -> gauge_fn t ~group ?site name (fun () -> field (value ())))
    gauges

let histogram t ~group ?site ~buckets name =
  let limits = Array.of_list buckets in
  Array.iteri
    (fun i limit ->
      if i > 0 && limit <= limits.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    limits;
  let h =
    { limits; counts = Array.make (Array.length limits + 1) 0; sum = 0.0; count = 0 }
  in
  register t ~group ~site name (Histogram_s h);
  h

let observe h v =
  let n = Array.length h.limits in
  let rec slot i = if i >= n then n else if v <= h.limits.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

(* Bucket-interpolated percentile, Prometheus-style: find the bucket the
   q-th ranked observation falls into and interpolate linearly inside it
   (the first bucket's lower edge is 0, matching this repo's non-negative
   instruments; the overflow bucket cannot be interpolated into, so it
   clamps to the last finite bound). *)
let percentile_of_buckets ~limits ~counts ~count q =
  if count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 100.0 q) in
    let target = q /. 100.0 *. float_of_int count in
    let n = Array.length limits in
    let rec walk i cumulative =
      if i >= n then (* overflow bucket *)
        if n = 0 then 0.0 else limits.(n - 1)
      else
        let cumulative' = cumulative +. float_of_int counts.(i) in
        if cumulative' >= target && counts.(i) > 0 then
          let lower = if i = 0 then 0.0 else limits.(i - 1) in
          let upper = limits.(i) in
          let into = (target -. cumulative) /. float_of_int counts.(i) in
          lower +. ((upper -. lower) *. Float.max 0.0 (Float.min 1.0 into))
        else walk (i + 1) cumulative'
    in
    walk 0 0.0
  end

let percentile h q =
  percentile_of_buckets ~limits:h.limits ~counts:h.counts ~count:h.count q

type view =
  | Counter_v of float
  | Gauge_v of float
  | Histogram_v of { limits : float array; counts : int array; sum : float; count : int }

type entry = { group : string; name : string; site : int option; view : view }

let view_percentile view q =
  match view with
  | Counter_v _ | Gauge_v _ -> invalid_arg "Metrics.view_percentile: not a histogram"
  | Histogram_v { limits; counts; count; _ } ->
      percentile_of_buckets ~limits ~counts ~count q

let materialize t regs =
  t.snapshots <- t.snapshots + 1;
  List.rev_map
    (fun r ->
      let view =
        match r.src with
        | Counter_s c -> Counter_v c.c
        | Gauge_s f -> Gauge_v (f ())
        | Histogram_s h ->
            Histogram_v
              {
                limits = Array.copy h.limits;
                counts = Array.copy h.counts;
                sum = h.sum;
                count = h.count;
              }
      in
      { group = r.r_group; name = r.r_name; site = r.r_site; view })
    regs

let snapshot t = materialize t t.regs

let qualified e =
  match e.site with None -> e.name | Some s -> Printf.sprintf "%s.s%d" e.name s

(* Filter first: evaluating every gauge would walk every site's store. *)
let alist ?group t =
  let entries =
    match group with
    | None -> snapshot t
    | Some g ->
        materialize t (List.filter (fun r -> String.equal r.r_group g) t.regs)
  in
  List.concat_map
    (fun e ->
      match e.view with
      | Counter_v v | Gauge_v v -> [ (qualified e, v) ]
      | Histogram_v { limits; counts; sum; count } ->
          let mean = if count = 0 then 0.0 else sum /. float_of_int count in
          let pct = percentile_of_buckets ~limits ~counts ~count in
          [
            (qualified e ^ ".count", float_of_int count);
            (qualified e ^ ".mean", mean);
            (qualified e ^ ".p50", pct 50.0);
            (qualified e ^ ".p99", pct 99.0);
          ])
    entries

let pp_entry ppf e =
  let site = match e.site with None -> "" | Some s -> Printf.sprintf "[s%d]" s in
  match e.view with
  | Counter_v v -> Format.fprintf ppf "%s/%s%s = %g" e.group e.name site v
  | Gauge_v v -> Format.fprintf ppf "%s/%s%s = %g (gauge)" e.group e.name site v
  | Histogram_v { limits; counts; sum; count } ->
      let mean = if count = 0 then 0.0 else sum /. float_of_int count in
      let pct = percentile_of_buckets ~limits ~counts ~count in
      Format.fprintf ppf "%s/%s%s: n=%d mean=%.2f p50=%.2f p99=%.2f [" e.group
        e.name site count mean (pct 50.0) (pct 99.0);
      Array.iteri
        (fun i limit -> Format.fprintf ppf "%s<=%g:%d" (if i = 0 then "" else " ") limit counts.(i))
        limits;
      Format.fprintf ppf " inf:%d]" counts.(Array.length limits)

module Json = Esr_util.Json

let write_json oc entries =
  let entry e =
    let view =
      match e.view with
      | Counter_v v -> [ ("kind", Json.Str "counter"); ("value", Num v) ]
      | Gauge_v v -> [ ("kind", Str "gauge"); ("value", Num v) ]
      | Histogram_v { limits; counts; sum; count } ->
          let pct = percentile_of_buckets ~limits ~counts ~count in
          [
            ("kind", Str "histogram");
            ("limits", Arr (Array.fold_right (fun l acc -> Json.Num l :: acc) limits []));
            ("counts", Arr (Array.fold_right (fun c acc -> Json.int c :: acc) counts []));
            ("sum", Num sum);
            ("count", Json.int count);
            ("p50", Num (pct 50.0));
            ("p99", Num (pct 99.0));
          ]
    in
    let site = match e.site with Some s -> [ ("site", Json.int s) ] | None -> [] in
    Json.Obj ((("group", Json.Str e.group) :: ("name", Str e.name) :: site) @ view)
  in
  Json.output_lines oc
    [ Same ("schema", Str "esr-metrics/1"); Block ("metrics", Seq.map entry (List.to_seq entries)) ]
