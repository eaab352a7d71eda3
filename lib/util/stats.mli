(** Descriptive statistics for experiment metrics. *)

type t
(** A mutable sample accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** 0 on an empty accumulator. *)

val variance : t -> float
(** Population variance; 0 when fewer than two samples. *)

val stddev : t -> float
val min : t -> float
(** 0 on an empty accumulator. *)

val max : t -> float
(** 0 on an empty accumulator. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], linear interpolation between
    order statistics.  0 on an empty accumulator. *)

val median : t -> float
val values : t -> float array
(** Copy of the raw samples in insertion order. *)

val merge : t -> t -> t
(** Fresh accumulator holding both sample sets. *)

val summary : t -> string
(** One-line [n/mean/p50/p99/max] rendering for logs. *)

(** Fixed-bucket histogram (for staleness / error distributions). *)
module Histogram : sig
  type h

  val create : buckets:float array -> h
  (** [buckets] are the upper bounds of each bin, ascending; an implicit
      overflow bin catches the rest. *)

  val add : h -> float -> unit
  val counts : h -> int array
  (** Length = [Array.length buckets + 1]; last entry is the overflow bin. *)

  val total : h -> int
  val pp : Format.formatter -> h -> unit
end
