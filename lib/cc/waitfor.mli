(** Wait-for graph with cycle detection, used for deadlock detection in
    {!Lock_mgr} and exposed for direct testing.

    Edges are indexed both ways, so a cycle check is one walk back from
    the waiter over the transactions that (transitively) wait on it, and
    removing a node costs its degree.  Nodes with no edge left are
    dropped. *)

type t

val create : unit -> t

val add_edges : t -> waiter:int -> int list -> bool
(** [add_edges t ~waiter holders] records that [waiter] waits on every
    transaction in [holders].  Returns [false] — and adds {e no} edge —
    when that would close a cycle, i.e. when some holder already reaches
    [waiter] or is [waiter] itself.  The answer is the same as adding the
    edges one at a time and stopping at the first refusal: every new edge
    leaves [waiter], so none of them opens a new path into it. *)

val remove_edges_from : t -> waiter:int -> unit
val remove_node : t -> int -> unit
(** Drop the node and every edge touching it. *)

val waits_on : t -> waiter:int -> int list
val reachable : t -> src:int -> dst:int -> bool
(** Transitive reachability along wait edges ([src] reaches itself). *)
