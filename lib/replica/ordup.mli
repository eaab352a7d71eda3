(** ORDUP — ordered updates (paper §3.1).

    Update MSets carry a global order (central sequencer tickets or
    Lamport timestamps, per [Intf.config.ordup_ordering]); every replica
    executes them in that order, so update ETs are SR by construction.
    Query ETs read local state freely, charged one inconsistency unit per
    update ET that overlaps their serialization point; an exhausted
    epsilon routes the query onto the consistent path, where it acquires
    its own slot in the global order ("the query ET is allowed to proceed
    only when it is running in the global order"). *)

include Intf.S
