(** Lock manager parameterised by a {!Lock_table}.

    This is the site-local divergence control engine: instantiate it with
    {!Lock_table.standard} for a classic 2PL scheduler, with
    {!Lock_table.ordup} or {!Lock_table.commu} for the paper's ET
    disciplines.  Commutativity-conditional entries ([If_commutes]) are
    discharged against the actual operations carried by the requests.

    Requests are granted FIFO per key (no starvation).  Deadlocks are
    detected eagerly on a wait-for graph ({!Waitfor}); the requester whose
    wait would close a cycle is rejected ([Deadlock]), keeps none of its
    wait edges, and is expected to abort. *)

type t

val create : ?table:Lock_table.t -> unit -> t
(** [table] defaults to {!Lock_table.standard}. *)

val table : t -> Lock_table.t

type outcome =
  | Granted
  | Blocked  (** queued; [on_grant] fires when the lock is acquired *)
  | Deadlock  (** refused — waiting would create a deadlock cycle *)

val acquire :
  t ->
  txn:int ->
  key:string ->
  mode:Lock_table.mode ->
  ?op:Esr_store.Op.t ->
  ?on_grant:(unit -> unit) ->
  unit ->
  outcome
(** A transaction's own locks never conflict with its new requests. *)

val release_all : t -> txn:int -> unit
(** Drop all locks held by [txn], cancel its queued requests, and grant
    any now-compatible waiters (their [on_grant] callbacks run inside this
    call, in FIFO order per key).

    {b Order across keys.}  Keys are visited in the order [Hashtbl.iter]
    walks the manager's key table (bucket by bucket, newest key first
    within a bucket), as if the walk covered every key ever locked; a key
    added during the call counts only if that walk would have reached it.
    Every grant runs an [on_grant] that may send messages, so this order
    reaches event order, PRNG draws and every model digest: it is kept
    exactly, not improved.  An [on_grant] may re-enter the manager.  A
    nested [release_all] of another transaction may then grant [txn] a
    key; [txn] loses that key again only if the walk has not passed it.

    {b Cost.}  The call visits the keys [txn] holds or waits on, plus the
    keys whose grants are still running an [on_grant] further up the
    stack; every other queue head is already inadmissible.  Each visit
    costs the key's holder and queue lists and the queue prefix it
    grants.  Keys the manager locked once and no longer uses cost
    nothing. *)

val holds : t -> txn:int -> key:string -> bool
val holders : t -> key:string -> (int * Lock_table.mode) list
val queue_length : t -> key:string -> int

type counters = { granted : int; blocked : int; deadlocks : int }

val counters : t -> counters
