(** COMPE — compensation-based backward replica control (paper §4).

    MSets apply optimistically before the global update decides; aborts
    compensate either in place (logical inverses, when the log tail
    commutes) or by Time-Warp undo/redo of the tail.  Sagas
    ({!submit_saga}, §4.2) hold their steps' lock-counters until the
    whole saga ends and revoke committed steps when a later step aborts.
    Invariant: every store mutation is a log entry, so folding a site's
    log reproduces its store ({!log_entries}). *)

include Intf.S

val submit_saga :
  t -> origin:int -> Intf.intent list list -> (Intf.update_outcome -> unit) -> unit
(** Run the steps as one saga (§4.2): sequentially, counters held to the
    end, committed prefix revoked if a later step's global decision is an
    abort.  The callback fires once, with the whole saga's outcome. *)

val log_entries :
  t -> site:int -> (Esr_core.Et.id * bool * (string * Esr_store.Op.t) list) list
(** Introspection for tests: the site's remaining log entries (oldest
    first, with their decided flag).  Folding the operations over an
    empty store reproduces the site's store exactly. *)
