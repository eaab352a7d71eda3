(** Registry of every replica-control method.

    The bench harness derives the paper's Table 1 from {!metas}; drivers
    instantiate systems by name through {!make}. *)

val modules : (module Intf.S) list
(** The four asynchronous methods (ORDUP, COMMU, RITU, COMPE) followed by
    the three synchronous comparators (2PC, QUORUM, QUASI). *)

val asynchronous : string list
(** Names of the paper's methods. *)

val synchronous : string list
(** Names of the baseline comparators. *)

val metas : Intf.meta list
(** Table 1 rows, in {!modules} order. *)

val names : string list

val find : string -> (module Intf.S) option
(** Case-insensitive lookup. *)

val make : name:string -> Intf.env -> Intf.system
(** Instantiate a replicated system, registering the method's stats as
    group ["method"] gauges in [env]'s metrics registry, in the method's
    own order.  Raises [Invalid_argument] for an unknown name (the
    message lists the known ones). *)
