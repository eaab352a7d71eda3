(** Network model over the simulation engine.

    Sites are numbered [0 .. sites-1].  Each message samples a latency from
    the configured distribution and may be dropped or duplicated.  Links
    can be severed wholesale by {!partition}; sites can {!crash} and
    {!recover}.  Reliability on top of this lossy substrate is the job of
    {!Esr_squeue} — exactly the paper's split between raw links and stable
    queues (§2.2).

    Every message fate is counted (and traced when the attached
    {!Esr_obs.Obs.t} has tracing enabled): sent, delivered, lost to random
    drop, blocked by a partition, silently dropped because the source or
    the destination site is crashed, and duplicated. *)

type config = {
  latency : Esr_util.Dist.t;  (** one-way delay distribution *)
  drop_probability : float;  (** iid message loss *)
  duplicate_probability : float;  (** iid duplicate delivery *)
}

val default_config : config
(** 10ms constant latency, no loss, no duplicates. *)

val wan_config : config
(** Lognormal latency around ~40ms with 1% loss — the "very slow links"
    regime the paper targets. *)

type t

val max_sites : int
(** 4,096: a message carries (src, dst) in 12 + 12 bits. *)

val create :
  ?config:config ->
  ?obs:Esr_obs.Obs.t ->
  Engine.t ->
  sites:int ->
  prng:Esr_util.Prng.t ->
  t
(** Raises [Invalid_argument] unless [0 < sites <= max_sites].
    With [?obs], message events are recorded into its trace sink and the
    fate counters (plus per-site send/delivery counts) are registered as
    group ["net"] gauges in its metrics registry.  Without it the network
    is silent: no sink, no registration, identical behaviour. *)

val engine : t -> Engine.t
val sites : t -> int

type port
(** A message handler registered with {!port}. *)

val port : ?cls:string -> t -> (src:int -> dst:int -> int -> unit) -> port
(** [port t handler] registers [handler] for {!post}.  [cls] labels the
    port's messages in trace events (default ["msg"]); stable queues
    register ["data"] and ["ack"] ports.  Each port takes one of the
    engine's 256 port slots. *)

val post : t -> port -> src:int -> dst:int -> int -> unit
(** [post t p ~src ~dst arg] runs [handler ~src ~dst arg] of port [p] at
    [dst] after a sampled latency, unless the message is lost, the two
    sites are partitioned (checked both at send time and again at arrival
    time, so a partition that fires while the message is in flight cuts
    it off), or [dst] is down at arrival time.  Sending from a crashed
    site is a silent drop.  A duplicated message runs the handler once
    per copy.  Random draws, in order: drop, latency, duplicate, and a
    second latency for a duplicate copy.  [arg] must lie in
    [\[0, 2^30)] (see {!Engine.post}).  A message is a port event: it
    allocates no closure and no event record. *)

(** {2 Failure injection} *)

val partition : t -> int list list -> unit
(** [partition t groups] makes sites reachable only within their group.
    Sites absent from every group form one extra implicit group together.
    Raises [Invalid_argument] if a site appears twice. *)

val heal : t -> unit
(** Remove all partitions. *)

val reachable : t -> int -> int -> bool

val crash : t -> int -> unit
val recover : t -> int -> unit
val site_up : t -> int -> bool

val on_recover : t -> (int -> unit) -> unit
(** Register a hook fired (synchronously, in registration order) each time
    a site recovers — stable queues use it to kick retransmission
    immediately instead of waiting out a backoff interval. *)

val on_heal : t -> (unit -> unit) -> unit
(** Register a hook fired each time all partitions heal. *)

val partitioned : t -> bool
(** True while any two sites are in different partition groups. *)

val partition_groups : t -> int list list
(** Current partition groups (ascending site order); a single group
    covering every site when the network is whole. *)

val down_sites : t -> int list
(** Sites currently crashed, ascending. *)

(** {2 Introspection} *)

type counters = {
  sent : int;
  delivered : int;
  lost : int;  (** random loss *)
  blocked : int;  (** = blocked_partition + crashed_src + crashed_dst *)
  blocked_partition : int;  (** dropped at send: sites in different groups *)
  crashed_src : int;  (** dropped at send: source site down *)
  crashed_dst : int;  (** dropped at arrival: destination site down *)
  duplicated : int;
}

val counters : t -> counters
