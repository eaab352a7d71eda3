(** OpenMetrics text exposition.

    Renders a {!Metrics} snapshot in the OpenMetrics text format so
    standard tooling — promtool, Prometheus scrape debugging, grep — can
    consume simulator output.
    Deterministic: families keep registry registration order. *)

val write_snapshot : out_channel -> ?prefix:string -> Metrics.entry list -> unit
(** One family per (group, name), per-site instruments folded in under a
    [site] label.  Counters carry [_total]; histograms render cumulative
    [_bucket{le=..}] series, [_sum], [_count] and derived [_p50]/[_p99]
    gauge families.  Ends with [# EOF].  [prefix] defaults to ["esr"]. *)
