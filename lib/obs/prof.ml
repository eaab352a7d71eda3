(* Host-time/resource phase profiler.  See prof.mli for the contract;
   the shape deliberately mirrors Trace: a disabled profiler allocates
   nothing, and every instrumentation site guards with [on] so the off
   path costs one load-and-branch. *)

type phase =
  | Engine_dispatch
  | Apply
  | Propagate
  | Net_delivery
  | Wal_append
  | Replay

let n_phases = 6

let phase_index = function
  | Engine_dispatch -> 0
  | Apply -> 1
  | Propagate -> 2
  | Net_delivery -> 3
  | Wal_append -> 4
  | Replay -> 5

let all_phases =
  [ Engine_dispatch; Apply; Propagate; Net_delivery; Wal_append; Replay ]

let phase_name = function
  | Engine_dispatch -> "engine_dispatch"
  | Apply -> "apply"
  | Propagate -> "propagate"
  | Net_delivery -> "net_delivery"
  | Wal_append -> "wal_append"
  | Replay -> "replay"

let phase_of_name = function
  | "engine_dispatch" -> Some Engine_dispatch
  | "apply" -> Some Apply
  | "propagate" -> Some Propagate
  | "net_delivery" -> Some Net_delivery
  | "wal_append" -> Some Wal_append
  | "replay" -> Some Replay
  | _ -> None

type agg = { count : int; seconds : float; alloc_bytes : float }

let zero_agg = { count = 0; seconds = 0.0; alloc_bytes = 0.0 }

type span = {
  sp_phase : phase;
  sp_site : int;  (** -1 when the phase has no site *)
  sp_start : float;  (** host seconds since the profiler's epoch *)
  sp_dur : float;  (** host seconds *)
  sp_bytes : float;  (** minor+major allocation during the span *)
}

type t = {
  enabled : bool;
  epoch : float;  (* Unix.gettimeofday at creation; 0 when disabled *)
  counts : int array;
  seconds : float array;
  bytes : float array;
  span_capacity : int;
  mutable spans : span array;  (* lazily allocated ring, like Trace *)
  mutable head : int;
  mutable len : int;
  mutable n_dropped : int;
}

(* Enabled profilers register here so the timed bench sweep can sum
   per-phase totals over every harness an experiment created — including
   harnesses built on pool worker domains.  The list is only mutated
   under the mutex (once per harness); the aggregates themselves are
   plain mutable cells read after the worker domains have joined. *)
let registered : t list ref = ref []
let registered_mu = Mutex.create ()

let default_span_capacity = 16_384

let disabled =
  {
    enabled = false;
    epoch = 0.0;
    counts = [||];
    seconds = [||];
    bytes = [||];
    span_capacity = 0;
    spans = [||];
    head = 0;
    len = 0;
    n_dropped = 0;
  }

let make ?(span_capacity = default_span_capacity) ~enabled () =
  if not enabled then disabled
  else begin
    if span_capacity < 1 then
      invalid_arg "Prof.make: span_capacity must be positive";
    let t =
      {
        enabled = true;
        epoch = Unix.gettimeofday ();
        counts = Array.make n_phases 0;
        seconds = Array.make n_phases 0.0;
        bytes = Array.make n_phases 0.0;
        span_capacity;
        spans = [||];
        head = 0;
        len = 0;
        n_dropped = 0;
      }
    in
    Mutex.lock registered_mu;
    registered := t :: !registered;
    Mutex.unlock registered_mu;
    t
  end

let on t = t.enabled

let start t = if t.enabled then Unix.gettimeofday () else 0.0
let alloc0 t = if t.enabled then Gc.allocated_bytes () else 0.0

let push_span t s =
  if Array.length t.spans = 0 then begin
    t.spans <- Array.make t.span_capacity s;
    t.len <- 1
  end
  else if t.len < t.span_capacity then begin
    t.spans.((t.head + t.len) mod t.span_capacity) <- s;
    t.len <- t.len + 1
  end
  else begin
    t.spans.(t.head) <- s;
    t.head <- (t.head + 1) mod t.span_capacity;
    t.n_dropped <- t.n_dropped + 1
  end

let record t ?(site = -1) phase ~t0 ~a0 =
  if t.enabled then begin
    let now = Unix.gettimeofday () in
    let db = Gc.allocated_bytes () -. a0 in
    let dt = Float.max 0.0 (now -. t0) in
    let i = phase_index phase in
    t.counts.(i) <- t.counts.(i) + 1;
    t.seconds.(i) <- t.seconds.(i) +. dt;
    t.bytes.(i) <- t.bytes.(i) +. db;
    push_span t
      {
        sp_phase = phase;
        sp_site = site;
        sp_start = t0 -. t.epoch;
        sp_dur = dt;
        sp_bytes = db;
      }
  end

let span t ~site phase f =
  if t.enabled then begin
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    record t ~site phase ~t0 ~a0;
    r
  end
  else f ()

let agg t phase =
  if not t.enabled then zero_agg
  else
    let i = phase_index phase in
    { count = t.counts.(i); seconds = t.seconds.(i); alloc_bytes = t.bytes.(i) }

let aggs t = List.map (fun p -> (p, agg t p)) all_phases

let iter_spans t f =
  for i = 0 to t.len - 1 do
    f t.spans.((t.head + i) mod t.span_capacity)
  done

let spans t =
  let acc = ref [] in
  iter_spans t (fun s -> acc := s :: !acc);
  List.rev !acc

let span_count t = t.len
let spans_dropped t = t.n_dropped

(* --- global per-sweep totals ---------------------------------------- *)

let reset_totals () =
  Mutex.lock registered_mu;
  registered := [];
  Mutex.unlock registered_mu

let totals () =
  Mutex.lock registered_mu;
  let profs = !registered in
  Mutex.unlock registered_mu;
  List.map
    (fun p ->
      let i = phase_index p in
      let sum f = List.fold_left (fun a t -> a +. f t) 0.0 profs in
      ( p,
        {
          count =
            List.fold_left (fun a t -> a + t.counts.(i)) 0 profs;
          seconds = sum (fun t -> t.seconds.(i));
          alloc_bytes = sum (fun t -> t.bytes.(i));
        } ))
    all_phases

(* --- exports --------------------------------------------------------- *)

let float_repr = Esr_util.Json.float_repr

(* Host-time track for the Chrome/Perfetto export: pid 1 (the virtual-time
   trace owns pid 0), one named thread per phase, "X" spans in host
   microseconds since the profiler epoch.  The strings splice into
   [Trace.write_chrome ~extra]. *)
let chrome_events t =
  if not t.enabled then []
  else begin
    let meta =
      Printf.sprintf
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"host time\"}}"
      :: List.map
           (fun p ->
             Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
               (phase_index p) (phase_name p))
           all_phases
    in
    let spans_ev =
      let acc = ref [] in
      iter_spans t (fun s ->
          acc :=
            Printf.sprintf
              "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"site\":%d,\"alloc_bytes\":%s}}"
              (phase_name s.sp_phase)
              (float_repr (s.sp_start *. 1e6))
              (float_repr (Float.max 0.0 (s.sp_dur *. 1e6)))
              (phase_index s.sp_phase) s.sp_site (float_repr s.sp_bytes)
            :: !acc);
      List.rev !acc
    in
    meta @ spans_ev
  end

(* --- JSON dump (schema esr-profile/1) -------------------------------- *)

type dump = {
  d_phases : (phase * agg) list;
  d_spans : span list;
  d_spans_dropped : int;
}

let schema = "esr-profile/1"

let dump t =
  { d_phases = aggs t; d_spans = spans t; d_spans_dropped = t.n_dropped }

let write_json oc t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"";
  Buffer.add_string b schema;
  Buffer.add_string b "\",\"phases\":[";
  List.iteri
    (fun i (p, a) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"phase\":\"%s\",\"count\":%d,\"seconds\":%s,\"alloc_bytes\":%s}"
           (phase_name p) a.count (float_repr a.seconds)
           (float_repr a.alloc_bytes)))
    (aggs t);
  Buffer.add_string b "],\n\"spans_dropped\":";
  Buffer.add_string b (string_of_int t.n_dropped);
  Buffer.add_string b ",\n\"spans\":[";
  output_string oc (Buffer.contents b);
  Buffer.clear b;
  let first = ref true in
  iter_spans t (fun s ->
      if !first then first := false else Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "[\"%s\",%d,%s,%s,%s]" (phase_name s.sp_phase)
           s.sp_site
           (float_repr s.sp_start)
           (float_repr s.sp_dur)
           (float_repr s.sp_bytes));
      output_string oc (Buffer.contents b);
      Buffer.clear b);
  output_string oc "]}\n"

let dump_of_json text =
  let module J = Esr_util.Json in
  match J.parse text with
  | Error e -> Error e
  | Ok json -> (
      match J.member "schema" json with
      | Some (J.Str s) when String.equal s schema ->
          let phases =
            match Option.bind (J.member "phases" json) J.to_list with
            | None -> []
            | Some l ->
                List.filter_map
                  (fun o ->
                    match
                      Option.bind
                        (Option.bind (J.member "phase" o) J.to_string)
                        phase_of_name
                    with
                    | None -> None
                    | Some p ->
                        let num k =
                          Option.value ~default:0.0
                            (Option.bind (J.member k o) J.to_float)
                        in
                        Some
                          ( p,
                            {
                              count = int_of_float (num "count");
                              seconds = num "seconds";
                              alloc_bytes = num "alloc_bytes";
                            } ))
                  l
          in
          let spans =
            match Option.bind (J.member "spans" json) J.to_list with
            | None -> []
            | Some l ->
                List.filter_map
                  (function
                    | J.Arr
                        [ J.Str name; J.Num site; J.Num st; J.Num dur; J.Num by ]
                      -> (
                        match phase_of_name name with
                        | None -> None
                        | Some p ->
                            Some
                              {
                                sp_phase = p;
                                sp_site = int_of_float site;
                                sp_start = st;
                                sp_dur = dur;
                                sp_bytes = by;
                              })
                    | _ -> None)
                  l
          in
          let dropped =
            Option.value ~default:0
              (Option.bind (J.member "spans_dropped" json) J.to_int)
          in
          Ok { d_phases = phases; d_spans = spans; d_spans_dropped = dropped }
      | _ -> Error "profile dump: missing or unknown schema")
