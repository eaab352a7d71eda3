(** Structured trace events keyed on virtual time.

    The event vocabulary covers everything the paper makes claims about:
    message fates on the lossy network, failure injection, update/query ET
    lifecycles (with charged inconsistency against the epsilon spec),
    MSet propagation, COMPE compensation, and end-of-run convergence.

    A {!t} is a per-run sink that holds no records: {!emit} hands each
    one to the taps attached to it ({!attach}, {!file_sink}, the
    auditor), so every consumer sees the complete stream, and returns at
    once when there are none.  A disabled sink refuses taps, and
    instrumented fast paths guard event construction with {!on}, so
    tracing off costs one predictable branch and zero allocation.

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

type record = { time : float;  (** virtual ms *) ev : event }

type t

val make : enabled:bool -> unit -> t

val on : t -> bool
(** Fast-path guard: instrumentation sites wrap event construction in
    [if Trace.on sink then Trace.emit sink ...]. *)

val emit : t -> time:float -> event -> unit
(** Hands the record to every tap; builds it only when one is attached. *)

val attach : t -> (record -> unit) -> unit
(** [attach t f] registers a streaming tap: [f] sees every subsequent
    record at emit time.  Taps run in attach order.  Raises
    [Invalid_argument] on a disabled sink (the tap would silently see
    nothing). *)

val file_sink : t -> out_channel -> unit
(** [file_sink t oc] attaches a write-through JSONL tap: every record is
    appended to [oc] as it is emitted.  The caller flushes/closes [oc]
    after the run. *)

(** {2 JSONL} *)

val type_name : event -> string
(** The stable [type] tag used in the JSONL encoding, e.g.
    ["squeue_delivered"]. *)

val record_to_json : record -> string
(** One line, no trailing newline, valid JSON object. *)

val record_of_json : string -> (record, string) result
(** Inverse of {!record_to_json}.  An absent [forced] reads as 0 (the
    writer leaves it out when 0); any other field missing or of the
    wrong type, or an unknown [type], is an [Error] naming it. *)

val jsonl_tap : (Buffer.t -> unit) -> record -> unit
(** [jsonl_tap out] renders each record's JSONL line, newline included,
    into one reused buffer and hands it to [out]. *)

(** {2 Chrome trace_event} *)

val chrome_writer :
  out_channel -> sites:int -> (record -> unit) * (extra:string list -> unit)
(** [chrome_writer oc ~sites] writes the envelope and the per-site track
    names at once, and returns [(write, close)]: [write] streams one
    record's event, so it serves as a tap or over a record list, and
    [close ~extra] splices in the [extra] event objects (e.g.
    {!Spans.chrome_events} span-tree flows, {!Prof.chrome_events}) and
    ends the document.  Served queries and committed updates become
    complete ("X") events whose latency is the span; everything else is
    an instant.  [tid] is the site, [tid = sites] is the system track. *)
