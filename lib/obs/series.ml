type sample = { at : float; values : float array }
type annotation = { at : float; label : string }

type t = {
  enabled : bool;
  interval : float;
  capacity : int;
  (* Probes in reverse registration order until the first sample freezes
     the column layout. *)
  mutable probes : (string * (unit -> float)) list;
  mutable registry : Metrics.t option;
  (* Frozen at first sample: probe columns then registry columns. *)
  mutable columns : string array;
  mutable frozen : bool;
  (* Ring buffer, same discipline as Trace. *)
  mutable buf : sample array;
  mutable head : int;
  mutable len : int;
  mutable n_dropped : int;
  mutable annotations : annotation list;  (* reverse order *)
}

let default_interval = 50.0
let default_capacity = 4096

let make ?(interval = default_interval) ?(capacity = default_capacity) ~enabled () =
  if interval <= 0.0 then invalid_arg "Series.make: interval must be positive";
  if capacity < 1 then invalid_arg "Series.make: capacity must be positive";
  {
    enabled;
    interval;
    capacity;
    probes = [];
    registry = None;
    columns = [||];
    frozen = false;
    buf = [||];
    head = 0;
    len = 0;
    n_dropped = 0;
    annotations = [];
  }

let on t = t.enabled
let interval t = t.interval

let probe t ~name f =
  if t.enabled then begin
    if t.frozen then invalid_arg "Series.probe: columns already frozen by sampling";
    t.probes <- (name, f) :: t.probes
  end

let bind_registry t m = if t.enabled then t.registry <- Some m

let annotate t ~time label =
  if t.enabled then t.annotations <- { at = time; label } :: t.annotations

let qualified (e : Metrics.entry) =
  let base =
    match e.site with
    | None -> Printf.sprintf "%s/%s" e.group e.name
    | Some s -> Printf.sprintf "%s/%s.s%d" e.group e.name s
  in
  base

(* Registry instruments become columns: counters and gauges one column
   each; histograms expand to running count/p50/p99 so latency quantiles
   can be charted over time. *)
let registry_columns entries =
  List.concat_map
    (fun (e : Metrics.entry) ->
      let q = qualified e in
      match e.view with
      | Metrics.Counter_v _ | Metrics.Gauge_v _ -> [ q ]
      | Metrics.Histogram_v _ -> [ q ^ ".count"; q ^ ".p50"; q ^ ".p99" ])
    entries

let registry_values entries =
  List.concat_map
    (fun (e : Metrics.entry) ->
      match e.view with
      | Metrics.Counter_v v | Metrics.Gauge_v v -> [ v ]
      | Metrics.Histogram_v { count; _ } ->
          [
            float_of_int count;
            Metrics.view_percentile e.view 50.0;
            Metrics.view_percentile e.view 99.0;
          ])
    entries

let freeze t =
  let probe_names = List.rev_map fst t.probes in
  let reg_names =
    match t.registry with
    | None -> []
    | Some m -> registry_columns (Metrics.snapshot m)
  in
  t.columns <- Array.of_list (probe_names @ reg_names);
  t.buf <- Array.make t.capacity { at = 0.0; values = [||] };
  t.frozen <- true

let push t s =
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- s;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- s;
    t.head <- (t.head + 1) mod t.capacity;
    t.n_dropped <- t.n_dropped + 1
  end

let sample t ~time =
  if t.enabled then begin
    if not t.frozen then freeze t;
    let probe_vals = List.rev_map (fun (_, f) -> f ()) t.probes in
    let reg_vals =
      match t.registry with
      | None -> []
      | Some m -> registry_values (Metrics.snapshot m)
    in
    let values = Array.of_list (probe_vals @ reg_vals) in
    if Array.length values <> Array.length t.columns then
      invalid_arg "Series.sample: instrument set changed after first sample";
    push t { at = time; values }
  end

let columns t = Array.to_list t.columns
let length t = t.len
let dropped t = t.n_dropped

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod t.capacity)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun s -> acc := s :: !acc);
  List.rev !acc

let annotations t = List.rev t.annotations

let column_index t name =
  let n = Array.length t.columns in
  let rec find i =
    if i >= n then None else if String.equal t.columns.(i) name then Some i else find (i + 1)
  in
  find 0

(* {2 Dump: the parsed/serialized form the report surface consumes} *)

type dump = {
  d_interval : float;
  d_columns : string array;
  d_samples : sample list;
  d_annotations : annotation list;
  d_dropped : int;
}

let dump t =
  {
    d_interval = t.interval;
    d_columns = Array.copy t.columns;
    d_samples = to_list t;
    d_annotations = annotations t;
    d_dropped = t.n_dropped;
  }

let schema = "esr-series/1"

module Json = Esr_util.Json

let write_json oc d =
  let nums l = Json.Arr (List.map (fun v -> Json.Num v) l) in
  Json.output_lines oc
    [
      Same ("schema", Str schema);
      Same ("interval", Num d.d_interval);
      Same ("dropped", Json.int d.d_dropped);
      Same ("columns", Arr (Str "time" :: Array.fold_right (fun c l -> Json.Str c :: l) d.d_columns []));
      Rows
        ( "samples",
          Seq.map (fun (s : sample) -> nums (s.at :: Array.to_list s.values)) (List.to_seq d.d_samples) );
      Next
        ( "annotations",
          Arr
            (List.map
               (fun (a : annotation) -> Json.Obj [ ("ts", Num a.at); ("label", Str a.label) ])
               d.d_annotations) );
    ]

let write_csv oc t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "time";
  Array.iter
    (fun c ->
      Buffer.add_char b ',';
      Buffer.add_string b c)
    t.columns;
  Buffer.add_char b '\n';
  output_string oc (Buffer.contents b);
  Buffer.clear b;
  iter t (fun s ->
      Buffer.add_string b (Json.float_repr s.at);
      Array.iter
        (fun v ->
          Buffer.add_char b ',';
          Buffer.add_string b (Json.float_repr v))
        s.values;
      Buffer.add_char b '\n';
      output_string oc (Buffer.contents b);
      Buffer.clear b)

let dump_of_json text =
  let open Json.Decode in
  of_string
    (fun j ->
      ignore (field "schema" (enum Fun.id [ schema ]) j);
      let columns =
        field "columns"
          (fun c ->
            match list string c with
            | "time" :: rest -> Array.of_list rest
            | _ -> fail "expected \"time\" first")
          j
      in
      let n = Array.length columns in
      let sample row =
        match list float row with
        | at :: values when List.length values = n -> { at; values = Array.of_list values }
        | _ -> fail (Printf.sprintf "expected %d numbers" (n + 1))
      in
      let annotation a = { at = field "ts" float a; label = field "label" string a } in
      {
        d_interval = field "interval" float j;
        d_columns = columns;
        d_samples = field "samples" (list sample) j;
        d_annotations = field "annotations" (list annotation) j;
        d_dropped = field "dropped" int j;
      })
    text

let dump_column d name =
  let n = Array.length d.d_columns in
  let rec find i =
    if i >= n then None
    else if String.equal d.d_columns.(i) name then Some i
    else find (i + 1)
  in
  find 0
