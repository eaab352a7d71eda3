(** Windowed time-series over the metrics registry, on virtual time.

    A {!t} is a per-run sampler: at every [sample] call it reads the
    registered derived probes (replica spread, oracle distance, backlog —
    whatever the layers above install) plus every instrument in the bound
    {!Metrics.t} registry, and appends one row to a fixed-capacity ring
    buffer (oldest rows dropped once full, counted in {!dropped}).
    Sampling cadence is driven from outside — the harness arms engine
    events on the virtual clock — so this module stays independent of the
    simulator and the output is deterministic: same run, same rows.

    Columns are frozen at the first sample (probe columns in registration
    order, then registry columns in registration order; histograms expand
    to running [.count]/[.p50]/[.p99]).  A disabled series allocates
    nothing and every operation is a no-op, mirroring {!Trace}. *)

type sample = { at : float;  (** virtual ms *) values : float array }
type annotation = { at : float; label : string }

type t

val make : ?interval:float -> ?capacity:int -> enabled:bool -> unit -> t
(** [interval] (default [50.0] virtual ms) is advisory — recorded in the
    dump and used by whoever arms the sampling events; [capacity]
    (default [4096]) bounds the ring. *)

val on : t -> bool
val interval : t -> float

val probe : t -> name:string -> (unit -> float) -> unit
(** Register a derived gauge column, read at each {!sample}.  Must happen
    before the first sample.  No-op when disabled. *)

val bind_registry : t -> Metrics.t -> unit
(** Sample every instrument of this registry alongside the probes. *)

val annotate : t -> time:float -> string -> unit
(** Mark a point on the timeline (fault injection/heal, quiescence).
    Annotations ride along in the dump and shade the report charts. *)

val sample : t -> time:float -> unit
(** Append one row.  Freezes the column set on first call.
    @raise Invalid_argument if instruments were registered after that. *)

val columns : t -> string list
val length : t -> int

val dropped : t -> int
(** Rows evicted because the ring wrapped. *)

val iter : t -> (sample -> unit) -> unit
(** Oldest to newest. *)

val to_list : t -> sample list
val annotations : t -> annotation list
val column_index : t -> string -> int option

(** {2 Dump} — the serialized form [esrsim report] consumes. *)

type dump = {
  d_interval : float;
  d_columns : string array;  (** without the leading [time] column *)
  d_samples : sample list;
  d_annotations : annotation list;
  d_dropped : int;
}

val dump : t -> dump

val schema : string
(** ["esr-series/1"]. *)

val write_json : out_channel -> dump -> unit
(** One [esr-series/1] object: schema, interval, dropped, columns
    (leading ["time"]), row-major samples one row per line, annotations.
    [write_json oc (dump t)] writes [t]. *)

val write_csv : out_channel -> t -> unit
(** Plain CSV, header row first. *)

val dump_of_json : string -> (dump, string) result
(** Parse a {!write_json} document (whole file contents).  Every field
    is required and every sample row must hold one number per column;
    the [Error] names the field that is not. *)

val dump_column : dump -> string -> int option
