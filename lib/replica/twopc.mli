(** TWOPC — synchronous 1SR baseline: primary-site 2PL (a global lock
    service at site 0, sorted-key acquisition, hence no update/update
    deadlocks) plus two-phase commit across all replicas, with
    presumed-abort coordinator timeouts.  Queries lock and read the local
    copy (read-one/write-all).  The "traditional coherency control" the
    paper positions ESR against (§2.4). *)

include Intf.S
