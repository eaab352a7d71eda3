(** Causal span reconstruction from a trace dump.

    Rebuilds per-ET span trees out of the flat event vocabulary: each
    update's root span ([Update_begin] to its commit/reject), the MSets
    it enqueued, and one propagation leg per destination site
    ([Mset_enqueued] to the site's applies, counting retransmit/replay
    duplicates).  Root spans are keyed on the harness's unique [u] ids
    and are exact; MSet attachment crosses into the methods' [et] id
    space via origin-and-order correlation (methods enqueue synchronously
    inside submit) and is best-effort — unattachable MSets land in
    [orphan_msets] instead of being guessed at. *)

type leg = {
  l_site : int;
  l_first_apply : float;
  l_last_apply : float;
  l_applies : int;  (** [> 1]: duplicate delivery, retransmit or replay *)
}

type mset = {
  m_et : int;
  m_origin : int;  (** [-1] when only applies were seen *)
  m_enqueued : float option;  (** [None]: applies without an enqueue record *)
  m_n_ops : int;
  m_legs : leg list;  (** sorted by site *)
}

type outcome = Committed of float | Rejected of float * string | Unresolved

type span = {
  s_u : int;
  s_origin : int;
  s_began : float;
  s_n_ops : int;
  s_outcome : outcome;
  s_msets : mset list;  (** enqueue order *)
}

type breakdown = {
  b_queued : float;  (** submit to first MSet enqueue *)
  b_in_flight : float;  (** fastest leg: pure transport time *)
  b_blocked : float;  (** order waits, decision collection, retransmits *)
}
(** Critical-path decomposition; the three parts sum to span latency. *)

type t = {
  spans : span list;  (** begin order *)
  orphan_msets : mset list;
  n_commit_events : int;
  unmatched_commits : int list;  (** committed [u]s with no begin in the dump *)
  duplicate_commits : int list;
}

val reconstruct : Trace.record list -> t
val n_committed : t -> int

val complete : t -> bool
(** Every [Update_committed] in the dump maps to exactly one root span:
    no unmatched or duplicate commits, committed-span count equals commit
    events.  False implies the dump lost lifecycle records. *)

val span_breakdown : span -> breakdown

val aggregate : t -> int * breakdown
(** Committed-span count and the mean breakdown over them. *)

val n_retransmit_legs : t -> int
(** Legs that applied more than once. *)

val chrome_events : sites:int -> t -> string list
(** Span-tree enrichment for a Chrome trace: one ["X"] slice per MSet leg
    on the destination track plus ["s"]/["f"] flow arrows from each
    enqueue to its applies.  JSON objects, no separators — spliced into
    the event array by {!Trace.chrome_writer}'s [close]. *)
