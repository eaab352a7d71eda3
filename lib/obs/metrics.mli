(** Deterministic metrics registry keyed on virtual time.

    A {!t} is a per-run registry of named instruments.  Registration order
    is the snapshot order, so two runs that register and update the same
    instruments produce byte-identical snapshots — determinism is part of
    the contract, like everything else in the simulator.

    Three instrument kinds:
    - {e counters}: monotonically accumulated floats (a mutable cell; an
      increment costs one float store, same as the ad-hoc [mutable int]
      fields it replaces);
    - {e gauges}: read-on-snapshot callbacks, for values another module
      already maintains (queue depths, engine counts);
    - {e histograms}: fixed upper-bound buckets plus an overflow bucket,
      for distributions (commit latency in virtual ms, per-query charged
      inconsistency).

    Instruments carry a [group] (["method"], ["net"], ["engine"],
    ["squeue"], ["harness"]) and an optional [site], which is what lets
    {!alist} reconstruct the pre-observability per-method stats lists
    exactly while the full {!snapshot} carries everything. *)

type t

val create : unit -> t

(** {2 Registration} *)

type counter

val counter : t -> group:string -> ?site:int -> string -> counter
val incr : counter -> unit
val add : counter -> float -> unit
val value : counter -> float

val gauge_fn : t -> group:string -> ?site:int -> string -> (unit -> float) -> unit
(** The callback runs at snapshot time only. *)

val gauges_fn :
  t -> group:string -> ?site:int -> (unit -> 'a) -> (string * ('a -> float)) list -> unit
(** [gauges_fn t ~group ?site read gauges] registers one gauge per
    [(name, field)], in list order, over one probe: a snapshot calls
    [read] once, and each gauge reads its [field] of the result.  For
    gauges that are fields of one costly reading. *)

type histogram

val histogram :
  t -> group:string -> ?site:int -> buckets:float list -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; an implicit
    overflow bucket catches the rest. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** Bucket-interpolated percentile ([q] in [[0,100]], Prometheus-style):
    linear interpolation inside the bucket the q-th ranked observation
    falls into, with the first bucket anchored at 0 and the overflow
    bucket clamped to the last finite bound.  0 on an empty histogram. *)

(** {2 Snapshots} *)

type view =
  | Counter_v of float
  | Gauge_v of float
  | Histogram_v of {
      limits : float array;  (** inclusive upper bounds *)
      counts : int array;  (** same length as [limits] plus overflow slot *)
      sum : float;
      count : int;
    }

type entry = { group : string; name : string; site : int option; view : view }

val snapshot : t -> entry list
(** All instruments, in registration order, with materialized values. *)

val view_percentile : view -> float -> float
(** {!percentile} over a materialized {!Histogram_v} view.
    @raise Invalid_argument on counter/gauge views. *)

val alist : ?group:string -> t -> (string * float) list
(** Flat compatibility view: counters and gauges become [(name, value)]
    pairs (site-qualified as ["name.sN"]); histograms expand to
    [name.count], [name.mean], [name.p50] and [name.p99] (bucket-
    interpolated).  With [?group], only that group — the
    pre-observability method stats lists are [alist ~group:"method"]. *)

val pp_entry : Format.formatter -> entry -> unit

val write_json : out_channel -> entry list -> unit
(** The [esr-metrics/1] dump of a {!snapshot}: one instrument per line,
    each with its group, name, site when it has one, kind and value (a
    histogram's limits, counts, sum, count, p50 and p99). *)
