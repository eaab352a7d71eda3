(** COMMU — commutative operations (paper §3.2).

    Update MSets contain only mutually commutative operations, so
    replicas apply them in any arrival order and still converge.
    Divergence bounding uses per-object lock-counters over each update's
    in-flight window (apply → global completion); queries are charged the
    counters they read through, wait when their epsilon is exhausted, and
    with [epsilon = Limit 0] take an atomic all-keys-quiet snapshot.
    Optional update-side limits ([commu_update_limit] on the operation
    count, [commu_value_limit] on the pending |delta|, §3.2/§5.1) give
    back-pressure with a Wait or Abort policy. *)

include Intf.S
