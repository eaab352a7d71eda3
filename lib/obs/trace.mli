(** Structured trace events keyed on virtual time.

    The event vocabulary covers everything the paper makes claims about:
    message fates on the lossy network, failure injection, update/query ET
    lifecycles (with charged inconsistency against the epsilon spec),
    MSet propagation, COMPE compensation, and end-of-run convergence.

    A {!t} is a per-run sink: a fixed-capacity ring buffer of timestamped
    events (oldest records are dropped once full, counted in {!dropped}).
    A disabled sink allocates nothing and {!emit} is a single load-and-
    branch — instrumented fast paths guard event construction with {!on}
    so tracing off costs one predictable branch and zero allocation.

    The ring is stored as three columns of 8-byte slots, 24 bytes per
    slot (6.3 MB at the default capacity): a float array of times, an
    int array of packed events, and an event array for the rest.  The
    seven message and stable-queue variants ([Msg_sent], [Msg_dropped],
    [Msg_duplicated], [Msg_delivered], [Squeue_send], [Squeue_delivered],
    [Squeue_dup]) are packed into one int, with the message class
    interned per sink; one whose [src] or [dst] is outside [0, 65535],
    whose [seq] is outside [0, 2{^28}), or whose class is past the 64th
    distinct one, and every other variant, stays boxed.  So an enabled
    sink with no tap stores a packed event without allocating, and the
    GC never promotes it.  {!iter}, {!to_list} and the exporters rebuild
    records on read, each structurally equal to the one emitted.

    Two export formats:
    - {e JSONL}: one self-describing JSON object per event
      ([{"ts":..,"type":..,...}]), parseable back via {!record_of_json};
    - {e Chrome trace_event}: a catapult/Perfetto-loadable timeline,
      virtual-time milliseconds mapped to trace microseconds, one track
      per site plus a "system" track for global events. *)

type drop_reason =
  | Loss  (** iid random loss *)
  | Partition  (** src and dst in different partition groups *)
  | Crashed_src  (** sent from a crashed site: silent drop *)
  | Crashed_dst  (** destination down at arrival time *)

type event =
  | Msg_sent of { src : int; dst : int; cls : string }
  | Msg_dropped of { src : int; dst : int; cls : string; reason : drop_reason }
  | Msg_duplicated of { src : int; dst : int; cls : string }
  | Msg_delivered of { src : int; dst : int; cls : string }
  | Partition_event of { groups : int list list }
  | Heal
  | Crash of { site : int }
  | Recover of { site : int }
  | Update_begin of { u : int; origin : int; n_ops : int }
  | Update_committed of { u : int; origin : int; latency : float }
  | Update_rejected of { u : int; origin : int; reason : string }
  | Query_begin of { q : int; site : int; n_keys : int; epsilon : int option }
  | Query_served of {
      q : int;
      site : int;
      charged : int;  (** inconsistency units accumulated *)
      forced : int;
          (** units charged unconditionally by backward compensations
              (§4.2) — only [charged - forced] is held to [epsilon] *)
      epsilon : int option;  (** the spec limit; [None] = unlimited *)
      consistent_path : bool;
      latency : float;
    }
  | Mset_enqueued of { et : int; origin : int; n_ops : int; keys : string list }
      (** [keys] are the distinct keys the MSet writes — the auditor
          reconstructs query/update overlap from them *)
  | Mset_applied of { et : int; site : int; n_ops : int; order : int option }
      (** [order] is the method's total-order position when one exists
          (ORDUP sequencer tickets); [None] for unordered methods *)
  | Compensation_fired of { et : int; site : int; kind : [ `Fast | `Full | `Revoke ] }
  | Squeue_send of { src : int; dst : int; seq : int }
      (** a payload entered the (src,dst) session channel under dense
          sequence number [seq] *)
  | Squeue_delivered of { src : int; dst : int; seq : int }
      (** the channel handed [seq] to the application exactly once *)
  | Squeue_dup of { src : int; dst : int; seq : int }
      (** a retransmitted/duplicated copy of [seq] was suppressed *)
  | Query_window of {
      w : int;  (** per-run window id, pairs with {!Query_window_closed} *)
      site : int;
      point : int;  (** the query's serialization point (ticket order) *)
      missing : int;  (** lump charge for not-yet-applied earlier MSets *)
      keys : string list;
    }
      (** an ORDUP optimistic query opened its inconsistency window *)
  | Query_window_closed of {
      w : int;
      site : int;
      charged : int;
      outcome : [ `Ok | `Fallback | `Killed ];
    }
      (** the window closed: served optimistically ([`Ok]), fell back to
          the consistent path on charge refusal ([`Fallback]), or died
          with its site ([`Killed]) *)
  | Volatile_dropped of {
      site : int;
      buffered : int;  (** order-buffer MSets lost with volatile memory *)
      queries_failed : int;  (** parked/active queries failed degraded *)
      updates_rejected : int;  (** un-notified origin outcomes rejected *)
      log : int;  (** durable-log length at the crash: the exact tail a
                      subsequent {!Recovery_replay} must replay *)
    }  (** a site crash wiped its volatile state *)
  | Recovery_replay of { site : int; n_actions : int }
      (** recovery rebuilt the site image by replaying its durable log
          (the tail behind the newest checkpoint, when one exists) *)
  | Checkpoint_cut of { site : int; folded : int; reclaimed : int }
      (** a consistent virtual-time cut snapshotted the site image:
          [folded] durable-log entries were absorbed into the snapshot
          and truncated, [reclaimed] journal records were garbage
          collected behind the watermark *)
  | Flush_round of { round : int }
  | Converged of { ok : bool }
  | Trace_meta of { dropped : int }
      (** exporter-synthesized header record: how many oldest events the
          ring buffer evicted before the first surviving record.  Never
          emitted by instrumentation; {!write_jsonl} leads with one when
          {!dropped} [> 0], and {!record_of_json} round-trips it. *)

type record = { time : float;  (** virtual ms *) ev : event }

type t

val make : ?capacity:int -> enabled:bool -> unit -> t
(** [capacity] (default [262144]) bounds the ring buffer.  Its columns
    are allocated at the first {!emit} of an enabled sink; a disabled
    sink never allocates them. *)

val on : t -> bool
(** Fast-path guard: instrumentation sites wrap event construction in
    [if Trace.on sink then Trace.emit sink ...]. *)

val emit : t -> time:float -> event -> unit
(** No-op on a disabled sink.  Builds a {!record} only when a tap is
    attached. *)

val attach : t -> (record -> unit) -> unit
(** [attach t f] registers a streaming tap: [f] sees every subsequent
    record at emit time, before ring eviction — a tap observes the
    complete event stream even when the ring wraps.  Taps run in attach
    order.  Raises [Invalid_argument] on a disabled sink (the tap would
    silently see nothing). *)

val file_sink : t -> out_channel -> unit
(** [file_sink t oc] attaches a write-through JSONL tap: every record is
    appended to [oc] as it is emitted.  Unlike {!write_jsonl} on a
    wrapped ring, the resulting file is complete — suitable for
    day-horizon runs whose event count exceeds any ring capacity.  The
    caller flushes/closes [oc] after the run. *)

val length : t -> int
val dropped : t -> int
(** Records evicted because the ring wrapped. *)

val iter : t -> (record -> unit) -> unit
(** Oldest to newest. *)

val to_list : t -> record list

(** {2 JSONL} *)

val type_name : event -> string
(** The stable [type] tag used in the JSONL encoding, e.g.
    ["squeue_delivered"]. *)

val record_to_json : record -> string
(** One line, no trailing newline, valid JSON object. *)

val record_of_json : string -> (record, string) result
(** Inverse of {!record_to_json}.  An absent [forced] reads as 0 (the
    writer leaves it out when 0); any other field missing or of the
    wrong type is an [Error] naming it. *)

val write_jsonl : out_channel -> t -> unit
(** When the ring wrapped ({!dropped} [> 0]) the first line is a
    [Trace_meta] record
    ([{"ts":..,"type":"meta","meta":{...},"dropped":N}]) so consumers
    can tell a truncated dump from a complete one. *)

(** {2 Chrome trace_event} *)

val write_chrome : ?extra:string list -> out_channel -> sites:int -> t -> unit
(** Complete ("X") events for served queries and committed updates (their
    latency becomes the span), instants for everything else; [tid] is the
    site, [tid = sites] is the system track.  A wrapped ring additionally
    emits a ["trace_dropped"] metadata ("M") event on the system track.
    [extra] event objects (e.g. {!Spans.chrome_events} span-tree flows)
    are spliced into the event array after the trace's own events. *)
