(** Stable queues: reliable asynchronous MSet transport.

    The paper factors message loss out of replica control by assuming
    "stable queues which persistently retry message delivery until
    successful" (§2.2, citing Bernstein et al.'s recoverable requests and
    persistent pipes).  This module implements that contract on top of the
    lossy {!Esr_sim.Net}:

    - every enqueued message is retried until acknowledged, each channel
      retransmitting its unacknowledged messages in seq order.  When a
      channel's retry timer fires, it resends every message that has
      waited a full interval if an ack removed one of its journal
      entries since the timer last fired (the link is alive); if none
      did, it sends only the oldest such message, as a probe (RFC 6298
      §5's rule: on a timeout, retransmit the earliest unacknowledged
      segment).  The first ack that removes an entry after a probe
      reopens the channel: every overdue message goes at once.  An
      outage therefore costs one send per interval per channel, not one
      per queued message;
    - receivers deduplicate by per-channel sequence number, so the
      application sees each message exactly once;
    - delivery order is configurable: [Unordered] (a message is handed up
      as soon as it first arrives — what ORDUP/COMMU/RITU assume, since
      they order by content, not by arrival) or [Fifo] (per-channel send
      order, buffering gaps);
    - queue state models stable storage: it survives simulated site
      crashes, and retransmission resumes on recovery.

    A {!t} is a fabric covering all sites of one simulated system.  Its
    state grows with the traffic: a channel (one per ordered site pair,
    holding its sender's journal and its receiver's dedup record) is
    made by the first {!send} on it. *)

type mode = Unordered | Fifo

type backoff = {
  multiplier : float;  (** retry-interval growth factor per probe *)
  max_interval : float;  (** backoff ceiling, virtual ms *)
  jitter : float;
      (** cap on the multiplicative jitter fraction: each armed timer waits
          [interval * (1 + U[0, jitter))] *)
}

val default_backoff : backoff
(** 2x growth, 800 ms ceiling, 10% jitter cap. *)

type 'a t

val create :
  ?mode:mode ->
  ?retry_interval:float ->
  ?backoff:backoff ->
  ?obs:Esr_obs.Obs.t ->
  Esr_sim.Net.t ->
  handler:(site:int -> src:int -> 'a -> unit) ->
  'a t
(** [handler ~site ~src msg] is invoked exactly once per message, at the
    destination [site], when the message (from [src]) is first deliverable.
    [retry_interval] defaults to 50.0 (5x the default link latency).
    [?backoff] only supplies the parameters of the one retry rule: each
    probe multiplies the channel's interval by [multiplier], up to
    [max_interval], reopening resets it to [retry_interval], and every
    armed timer waits [interval * (1 + U[0, jitter))].  Leaving it out
    means [{multiplier = 1.0; max_interval = retry_interval; jitter =
    0.0}]: every wait is exactly [retry_interval].  The fabric also
    registers {!Esr_sim.Net.on_recover}/[on_heal] hooks that kick an
    immediate pass when a site recovers or a partition heals: every
    outstanding message on the channels they touch goes at once, and a
    probing channel reopens.
    With [?obs], the fabric's counters are registered as group ["squeue"]
    gauges in its metrics registry; data and ack messages are labelled
    with classes ["data"] / ["ack"] in the underlying network trace.

    [create] allocates one empty slot per ordered site pair and no
    per-pair record: a channel's state is made by its first {!send}.  A
    receiver keeps a watermark (every seq below it handed up) and one
    table of the seqs that arrived past it — in [Unordered] mode those
    handed up out of order, in [Fifo] mode those waiting for the gap —
    made by the channel's first out-of-order arrival.

    Data, ack and retry-timer events are {!Esr_sim.Engine} port events
    carrying only (src, dst, seq): the receiver reads the payload from
    the sender's journal when it first accepts a seq, so a message
    allocates nothing beyond its journal entry.  A fabric takes three of
    the engine's port slots.  Each channel carries fewer than 2^30
    messages. *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Enqueue a message.  Returns immediately; transport is asynchronous. *)

val broadcast : 'a t -> src:int -> 'a -> unit
(** [send] to every site except [src]. *)

val multicast : 'a t -> src:int -> dests:Esr_store.Sharding.Dests.t -> 'a -> unit
(** [send] to every site in the destination cursor except [src], in
    ascending site order — with a full-replication cursor this is exactly
    {!broadcast}. *)

val pending : 'a t -> int
(** Messages enqueued but not yet acknowledged, across all channels.  Zero
    means the fabric is quiescent: nothing more will be delivered. *)

val journal_depth : 'a t -> site:int -> int
(** Current sender-side journal footprint of [site]: messages it enqueued
    that are not yet acknowledged, summed over its outbound channels. *)

val journaled : 'a t -> site:int -> int
(** Cumulative journal appends by [site] as sender (the seqs its
    channels have issued) — monotone, unlike {!journal_depth}, so
    resource series can chart journal churn. *)

val dedup_depth : 'a t -> site:int -> int
(** Receiver-side dedup journal footprint of [site]: the messages its
    inbound channels delivered since the last {!gc_site} cut.  On an
    [Unordered] fabric each channel keeps a watermark (every seq below it
    delivered) plus the seqs delivered out of order above it, so this is
    the watermark's advance since the cut plus that sparse set's size.
    Without GC it grows with every message the site ever received.
    [Fifo] fabrics keep no per-seq dedup record and report 0. *)

val gc_site : 'a t -> site:int -> int
(** Checkpoint GC of [site]'s inbound dedup journals: cut each channel at
    its watermark and return how far the watermarks advanced since the
    previous cut — the dedup records the cut reclaims.  Exactly-once
    delivery is preserved: a retransmission below the watermark is
    suppressed by the watermark itself.  [Fifo] fabrics return 0. *)

type counters = {
  enqueued : int;
  delivered_first : int;  (** messages handed to the handler *)
  duplicates_suppressed : int;
  retransmissions : int;
  acks_received : int;
}

val counters : 'a t -> counters
