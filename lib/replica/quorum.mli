(** QUORUM — synchronous baseline in the weighted-voting style
    (Gifford, simplified to version-number voting): updates read versions
    from a write quorum and install max+1 at a write quorum; queries read
    a read quorum and return the highest version.  Single-key blind
    writes only (documented in DESIGN.md). *)

include Intf.S
