(** Per-run observability bundle: trace sink + metrics registry + series
    + host-time profiler.

    Every {!Esr_replica.Harness} owns exactly one [t]; the instrumented
    layers (engine counters, network, stable queues, replica methods)
    reach it through [Intf.env].  Metrics are always on — an increment
    costs what the ad-hoc mutable counters it replaced cost.  Tracing,
    the time series and the profiler default to off and are zero-cost
    then (see {!Trace}, {!Series}, {!Prof}); the series samples the
    metrics registry plus whatever derived probes the layers above
    install.

    [default_tracing] / [default_profiling] are the defaults for
    harnesses that do not get an explicit [t] — the timed bench sweep
    sets them to measure the tracing-on and profiling-on overhead of
    whole experiments without threading a sink through every call site. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  series : Series.t;
  prof : Prof.t;
}

let create ?(tracing = false) ?(series = false) ?series_interval
    ?series_capacity ?(profiling = false) ?prof_span_capacity () =
  let metrics = Metrics.create () in
  let series =
    Series.make ?interval:series_interval ?capacity:series_capacity ~enabled:series ()
  in
  Series.bind_registry series metrics;
  {
    trace = Trace.make ~enabled:tracing ();
    metrics;
    series;
    prof = Prof.make ?span_capacity:prof_span_capacity ~enabled:profiling ();
  }

(* A run's dump files beside [base]: [base.series.json] (esr-series/1),
   [base.om] (the final registry as OpenMetrics text) and, with profiling
   on, [base.profile.json] (esr-profile/1). *)
let write_dumps t ~base =
  let out ext f = Out_channel.with_open_text (base ^ ext) f in
  out ".series.json" (fun oc -> Series.write_json oc (Series.dump t.series));
  out ".om" (fun oc -> Openmetrics.write_snapshot oc (Metrics.snapshot t.metrics));
  if Prof.on t.prof then
    out ".profile.json" (fun oc -> Prof.write_json oc (Prof.dump t.prof))

let default_tracing = ref false
let default_profiling = ref false

(* A default traced sink gets a tap that renders every record's JSONL
   line and discards it, so the timed sweep's traced pass measures the
   encoding a dump would pay, not just building the events. *)
let default () =
  let t = create ~tracing:!default_tracing ~profiling:!default_profiling () in
  if !default_tracing then Trace.attach t.trace (Trace.jsonl_tap ignore);
  t
