(** Streaming runtime-verification auditor: replays or taps the trace
    and certifies the paper's guarantees, producing typed violations
    that pin the first offending event, plus a per-query epsilon ledger
    (bound vs. charged vs. reconstructed overlap vs. oracle distance).

    Invariants checked online:

    - {b delivery} — every stable-queue channel journals a dense
      sequence from 0, hands each seq up exactly once, and (at a
      converged quiescent point) delivers everything journaled;
    - {b ordering} — virtual time never regresses, and each site
      executes its ORDUP ticket stream dense and in order (both the
      global sequencer and the per-site sharded streams);
    - {b epsilon} — [charged <= epsilon] for every bounded query, the
      lump charge at window-open equals the issued-but-unexecuted gap,
      and the final charge of every optimistically-served query equals
      the overlap with concurrent update ETs reconstructed from the
      apply stream (the paper's §2.1 inconsistency measure);
    - {b crash} — no effects from crashed sites (sends are silently
      dropped by the network, no applies, no window opens, no cuts),
      every down-window accounts for its volatile state, and every
      recovery replays exactly the logged prefix;
    - {b checkpoint} — cuts only at live sites;
    - {b convergence} — a quiescent run resolves every submitted ET,
      claims convergence with all sites up, and the divergence gauge
      agrees with the trace-level certificate.

    Traces whose prefix was evicted from the ring (leading
    [Trace_meta { dropped > 0 }]) are audited in {e relaxed} mode:
    history-dependent checks are suppressed instead of misfiring, and
    the resulting report is {!partial}. *)

type kind = Delivery | Ordering | Epsilon | Crash | Checkpoint | Convergence

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type violation = {
  v_kind : kind;
  v_invariant : string;  (** stable slug, e.g. ["squeue-double-delivery"] *)
  v_detail : string;
  v_time : float;  (** virtual time of the pinned event *)
  v_event : string;  (** {!Trace.type_name} of the pinned event *)
}

(** One served query in the epsilon ledger. *)
type entry = {
  l_q : int;
  l_site : int;
  l_keys : int;
  l_epsilon : int option;
  l_charged : int;
  l_forced : int;
      (** units charged unconditionally by backward compensations —
          only [l_charged - l_forced] is held to [l_epsilon] *)
  l_consistent : bool;
  l_latency : float;
  l_reconstructed : int option;
      (** independently reconstructed overlap, for optimistic serves *)
  l_oracle : float option;  (** workload-oracle distance, when noted *)
}

type summary = {
  s_events : int;
  s_dropped : int;
  s_queries : int;
  s_bounded : int;
  s_at_bound : int;
  s_charged_total : int;
  s_windows : int;
  s_windows_exact : int;
  s_max_replay : int;
  s_max_crash_log : int;
  s_crashes : int;
  s_cuts : int;
  s_converged : bool option;
}

type report = {
  label : string;
  violations : violation list;
      (** chronological; end-of-trace ones by channel, window id, site *)
  ledger : entry list;
  summary : summary;
}

val ok : report -> bool
(** No violations: the run is certified. *)

val partial : report -> bool
(** The audited trace lost events to ring eviction. *)

type t

val create : ?label:string -> unit -> t

val bind_metrics : t -> Metrics.t -> unit
(** Register the [audit/] gauges and histograms against the run's
    registry.  Call before the first series sample so the columns
    freeze in; never called when auditing is off, keeping unaudited
    output byte-identical. *)

val feed : t -> Trace.record -> unit
(** Consume one record — suitable directly as a {!Trace.attach} tap. *)

val note_oracle : t -> q:int -> distance:float -> unit
(** Attach the workload oracle's observed distance for query [q]; it
    surfaces in that query's ledger entry. *)

val finish : t -> report
(** Run end-of-trace checks (delivery completeness, unresolved ETs,
    unclosed windows, unreplayed logs) and seal the certificate. *)

val audit_records : ?label:string -> Trace.record list -> report
(** [create] + [feed] each + [finish], for offline dumps. *)

val schema : string
(** Certificate schema tag, ["esr-audit/1"]. *)

val report_to_json : report -> string
val report_of_json : string -> (report, string) result
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

(** Deliberate trace corruptions for auditor self-tests: each breaks
    exactly one invariant so tests can assert the auditor reports
    exactly that violation. *)
module Mutate : sig
  val replay_delivery : Trace.record list -> Trace.record list
  (** Duplicate the first [Squeue_delivered]: breaks exactly-once. *)

  val reorder_stream : Trace.record list -> Trace.record list
  (** Swap two consecutive applies in one site's ticket stream. *)

  val overcharge : Trace.record list -> Trace.record list
  (** Bump the first bounded query's charge past its epsilon. *)
end
