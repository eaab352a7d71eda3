(** RITU — read-independent timestamped updates (paper §3.3).

    Update MSets are timestamped blind writes applied in any order:
    [`Single] mode keeps the latest-timestamp version per object;
    [`Multi] mode keeps every version and derives a VTNC (visible
    transaction number counter) from per-origin FIFO watermarks — reads
    at the VTNC are SR, reads above it cost one epsilon unit each. *)

include Intf.S
