(** The JSON codec of every run artifact: trace JSONL lines, audit
    certificates, series, profile and metrics dumps, and the bench
    trajectory file.  Not a general-purpose JSON library — exactly the
    subset our writers emit (finite numbers, ASCII escapes).

    Writers build a {!t} (field order is the writer's list order) and
    print it with {!to_buffer}, {!render} or {!output_lines}.  Readers
    {!parse} and then {!Decode} the value: one typed decoder whose every
    failure is an [Error] naming the field. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error] carries an offset-annotated message; never raises. *)

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option

(** {2 Writing} *)

val int : int -> t
(** [Num] of the int: exact up to 2{^53}. *)

val nullable : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val float_repr : float -> string
(** Shortest decimal representation that parses back to the same float;
    non-finite values render as ["0"] (our virtual times and latencies
    are finite by construction). *)

val to_buffer : Buffer.t -> t -> unit
(** Compact single-line serialization: no whitespace, an integral number
    below 10{^15} in magnitude printed as an integer, any other number
    as {!float_repr}. *)

val render : t -> string
(** {!to_buffer} into a fresh string (inverse of {!parse} up to
    whitespace and number formatting). *)

(** A field of an object printed over several lines by {!output_lines}. *)
type line =
  | Same of string * t  (** on the current line *)
  | Next of string * t  (** at the start of a new line *)
  | Rows of string * t Seq.t
      (** at the start of a new line: an array with one element per line *)
  | Block of string * t Seq.t
      (** an array whose elements and closing bracket each start a line *)

val output_lines : out_channel -> line list -> unit
(** Prints the object of these fields, then a newline.  Each array
    element is rendered and written as its sequence yields it, so a long
    dump is never held whole. *)

(** {2 Typed decoding} *)

module Decode : sig
  type json := t

  type 'a t = json -> 'a
  (** A decoder; run it with {!of_string}, which turns its failure into
      [Error]. *)

  val int : int t
  (** An integral number of magnitude at most 2{^53}. *)

  val float : float t
  val string : string t
  val bool : bool t

  val nullable : 'a t -> 'a option t
  (** [Null] is [None]. *)

  val list : 'a t -> 'a list t

  val enum : ('a -> string) -> 'a list -> 'a t
  (** The value among [values] whose [name] is the string. *)

  val field : string -> 'a t -> 'a t
  (** A required field of an object. *)

  val field_or : string -> 'a -> 'a t -> 'a t
  (** [field_or name default d]: [default] when the field is absent. *)

  val fail : string -> 'a
  (** Fails the value being decoded with this message. *)

  val of_string : 'a t -> string -> ('a, string) result
  (** {!parse}, then the decoder.  A decoding failure is
      [Error "path: what"], the path from the root to the failing value
      written like [ledger[3].q]. *)
end
