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

(* Per-phase span counts, host seconds and allocated bytes. *)
type sums = { counts : int array; seconds : float array; bytes : float array }

let make_sums n =
  { counts = Array.make n 0; seconds = Array.make n 0.0; bytes = Array.make n 0.0 }

let add s i ~dt ~db =
  s.counts.(i) <- s.counts.(i) + 1;
  s.seconds.(i) <- s.seconds.(i) +. dt;
  s.bytes.(i) <- s.bytes.(i) +. db

let sum_at s i =
  { count = s.counts.(i); seconds = s.seconds.(i); alloc_bytes = s.bytes.(i) }

type t = {
  enabled : bool;
  epoch : float;  (* Unix.gettimeofday at creation; 0 when disabled *)
  sums : sums;
  span_capacity : int;
  mutable spans : span array;  (* lazily allocated ring *)
  mutable head : int;
  mutable len : int;
  mutable n_dropped : int;
}

(* Every span an enabled profiler records since [reset_totals], whatever
   profiler recorded it: the timed bench sweep's per-experiment phase
   breakdown, kept without holding on to any profiler. *)
let totals_since_reset = make_sums n_phases

let default_span_capacity = 16_384

let disabled =
  {
    enabled = false;
    epoch = 0.0;
    sums = make_sums 0;
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
    {
      enabled = true;
      epoch = Unix.gettimeofday ();
      sums = make_sums n_phases;
      span_capacity;
      spans = [||];
      head = 0;
      len = 0;
      n_dropped = 0;
    }
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
    add t.sums i ~dt ~db;
    add totals_since_reset i ~dt ~db;
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

let agg t phase = if not t.enabled then zero_agg else sum_at t.sums (phase_index phase)

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

(* --- sweep totals ------------------------------------------------- *)

let reset_totals () =
  let s = totals_since_reset in
  Array.fill s.counts 0 n_phases 0;
  Array.fill s.seconds 0 n_phases 0.0;
  Array.fill s.bytes 0 n_phases 0.0

let totals () =
  List.map (fun p -> (p, sum_at totals_since_reset (phase_index p))) all_phases

(* --- exports --------------------------------------------------------- *)

module Json = Esr_util.Json

let float_repr = Json.float_repr

(* Host-time track for the Chrome/Perfetto export: pid 1 (the virtual-time
   trace owns pid 0), one named thread per phase, "X" spans in host
   microseconds since the profiler epoch.  The strings splice into
   the [extra] of [Trace.chrome_writer]'s close. *)
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

let write_json oc d =
  Json.output_lines oc
    [
      Same ("schema", Str schema);
      Same
        ( "phases",
          Arr
            (List.map
               (fun (p, a) ->
                 Json.Obj
                   [
                     ("phase", Str (phase_name p));
                     ("count", Json.int a.count);
                     ("seconds", Num a.seconds);
                     ("alloc_bytes", Num a.alloc_bytes);
                   ])
               d.d_phases) );
      Next ("spans_dropped", Json.int d.d_spans_dropped);
      Rows
        ( "spans",
          Seq.map
            (fun s ->
              Json.Arr
                [
                  Str (phase_name s.sp_phase);
                  Json.int s.sp_site;
                  Num s.sp_start;
                  Num s.sp_dur;
                  Num s.sp_bytes;
                ])
            (List.to_seq d.d_spans) );
    ]

let dump_of_json text =
  let open Json.Decode in
  let phase = enum phase_name all_phases in
  let agg o =
    ( field "phase" phase o,
      {
        count = field "count" int o;
        seconds = field "seconds" float o;
        alloc_bytes = field "alloc_bytes" float o;
      } )
  in
  let span = function
    | Json.Arr [ p; site; start; dur; bytes ] ->
        {
          sp_phase = phase p;
          sp_site = int site;
          sp_start = float start;
          sp_dur = float dur;
          sp_bytes = float bytes;
        }
    | _ -> fail "expected [phase, site, start, dur, bytes]"
  in
  of_string
    (fun j ->
      ignore (field "schema" (enum Fun.id [ schema ]) j);
      {
        d_phases = field "phases" (list agg) j;
        d_spans = field "spans" (list span) j;
        d_spans_dropped = field "spans_dropped" int j;
      })
    text
