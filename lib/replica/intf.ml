(** The replica-control method interface.

    Every protocol — the paper's four asynchronous methods and the three
    synchronous comparators (2PC, QUORUM, QUASI) — implements
    {!module-type-S}.  A method is only its Table 1 rules: the kernel
    ({!Replica}) it builds runs everything else, through the hooks given
    to {!Replica.create}.  The Table 1 metadata ({!meta}) lives on the
    module, which lets the bench harness derive the paper's Table 1 from
    the registry instead of hard-coding it. *)

include Env

(** The uniform replica-control method interface. *)
module type S = sig
  type t

  val meta : meta
  val create : env -> t

  val kernel : t -> Replica.any
  (** The kernel built in [create], which the harness holds. *)

  val submit_update :
    t -> origin:int -> intent list -> (update_outcome -> unit) -> unit
  (** Asynchronous: the callback fires at commit (or rejection) virtual
      time.  Rejection is immediate when the intents violate the method's
      restriction. *)

  val submit_query :
    t ->
    site:int ->
    keys:string list ->
    epsilon:Epsilon.spec ->
    (query_outcome -> unit) ->
    unit

  val flush : t -> unit
  (** Emit whatever end-of-run traffic quiescence needs (watermark
      heartbeats, pending decisions).  Idempotent. *)

  val quiescent : t -> bool
  (** Protocol-level quiescence (beyond the transport): no buffered MSets
      waiting for order, no undecided provisional updates, no parked
      queries. *)

  val backlog : t -> int
  (** How much in-protocol work is outstanding right now: buffered MSets
      waiting for their order slot, undecided coordinations, parked ETs.
      [quiescent t] implies [backlog t = 0].  Sampled by the
      observability series as [esr/method_backlog]. *)

  val stats : t -> (string * float) list
  (** Method-specific counters for the experiment tables. *)
end

(** A running system ({!Registry.make}): its kernel, and the five calls
    a driver makes into the method itself. *)
type system = {
  kernel : Replica.any;
  submit_update : origin:int -> intent list -> (update_outcome -> unit) -> unit;
  submit_query :
    site:int -> keys:string list -> epsilon:Epsilon.spec ->
    (query_outcome -> unit) -> unit;
  flush : unit -> unit;
  quiescent : unit -> bool;
  backlog : unit -> int;
}

(** {!Replica.resources} under the name the esrbench runner reads a
    site's footprint by. *)
let boxed_resources = Replica.resources
