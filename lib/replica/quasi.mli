(** QUASI — quasi-copies comparator (paper §5.2): all updates 1SR at a
    primary site; replicas refresh under a closeness condition
    ([quasi_refresh]: immediate, periodic, or value-drift).  Queries read
    the local quasi-copy uncharged; [epsilon = Limit 0] routes to the
    primary. *)

include Intf.S
