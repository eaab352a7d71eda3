(* Grant order across keys.  A release visits the releasing transaction's
   keys in the order of its first request on each, and each grant's
   [on_grant] may send messages, so that order is part of every run's
   output.  No order comes from the key table, which is only looked up. *)

module Op = Esr_store.Op

type request = {
  txn : int;
  mode : Lock_table.mode;
  op : Op.t option;
  on_grant : unit -> unit;
}

type key_state = { mutable holders : request list; mutable queue : request list }

type counters = { granted : int; blocked : int; deadlocks : int }

type t = {
  table : Lock_table.t;
  keys : (string, key_state) Hashtbl.t;
  txns : (int, key_state list) Hashtbl.t;
      (* per transaction, the keys it is on in the order of its first
         request on each: the worklist [release_all] consumes *)
  waitfor : Waitfor.t;
  mutable n_granted : int;
  mutable n_blocked : int;
  mutable n_deadlocks : int;
}

let create ?(table = Lock_table.standard) () =
  {
    table;
    keys = Hashtbl.create 64;
    txns = Hashtbl.create 16;
    waitfor = Waitfor.create ();
    n_granted = 0;
    n_blocked = 0;
    n_deadlocks = 0;
  }

type outcome = Granted | Blocked | Deadlock

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s = { holders = []; queue = [] } in
      Hashtbl.replace t.keys key s;
      s

(* A transaction is on a key iff the key is in its worklist, so a key it
   is not yet on joins the tail. *)
let track t txn state =
  let states = Option.value (Hashtbl.find_opt t.txns txn) ~default:[] in
  if not (List.memq state states) then Hashtbl.replace t.txns txn (states @ [ state ])

let compatible t ~held ~requested =
  Lock_table.resolve t.table
    ~held:(held.mode, held.op)
    ~requested:(requested.mode, requested.op)

(* A request can run iff it is compatible with every holder owned by a
   different transaction. *)
let admissible t state request =
  List.for_all
    (fun held -> held.txn = request.txn || compatible t ~held ~requested:request)
    state.holders

(* Transactions blocking [request]: incompatible holders plus incompatible
   earlier waiters (FIFO order is part of the wait). *)
let blockers t state request =
  let holding =
    List.filter
      (fun held -> held.txn <> request.txn && not (compatible t ~held ~requested:request))
      state.holders
  in
  let queued =
    List.filter
      (fun waiting ->
        waiting.txn <> request.txn
        && not (compatible t ~held:waiting ~requested:request))
      state.queue
  in
  List.sort_uniq compare (List.map (fun r -> r.txn) (holding @ queued))

let acquire t ~txn ~key ~mode ?op ?(on_grant = fun () -> ()) () =
  let state = key_state t key in
  let request = { txn; mode; op; on_grant } in
  let already_queued = List.exists (fun r -> r.txn = txn) state.queue in
  (* A request compatible with every holder may still have to respect the
     FIFO queue — except when it is also compatible with every waiter, in
     which case letting it through can block nobody (this is what makes
     R_q locks of Tables 2/3 truly never wait). *)
  let jumps_queue =
    state.queue = []
    || List.for_all
         (fun waiting ->
           waiting.txn = txn
           || (compatible t ~held:waiting ~requested:request
              && compatible t ~held:request ~requested:waiting))
         state.queue
  in
  if (not already_queued) && jumps_queue && admissible t state request then begin
    state.holders <- state.holders @ [ request ];
    track t txn state;
    t.n_granted <- t.n_granted + 1;
    Granted
  end
  else if Waitfor.add_edges t.waitfor ~waiter:txn (blockers t state request) then begin
    state.queue <- state.queue @ [ request ];
    track t txn state;
    t.n_blocked <- t.n_blocked + 1;
    Blocked
  end
  else begin
    (* The caller aborts, so all its waits are void. *)
    Waitfor.remove_edges_from t.waitfor ~waiter:txn;
    t.n_deadlocks <- t.n_deadlocks + 1;
    Deadlock
  end

(* Grant the longest admissible FIFO prefix of the queue.  A release
   nested in a grant's [on_grant] may free the key further; this loop
   grants the next waiter itself once the callback returns. *)
let pump t state =
  let rec loop () =
    match state.queue with
    | [] -> ()
    | next :: rest ->
        if admissible t state next then begin
          state.queue <- rest;
          state.holders <- state.holders @ [ next ];
          Waitfor.remove_edges_from t.waitfor ~waiter:next.txn;
          t.n_granted <- t.n_granted + 1;
          next.on_grant ();
          loop ()
        end
  in
  loop ()

let visit t ~txn state =
  let had = List.exists (fun r -> r.txn = txn) state.holders in
  state.holders <- List.filter (fun r -> r.txn <> txn) state.holders;
  state.queue <- List.filter (fun r -> r.txn <> txn) state.queue;
  if had || state.queue <> [] then pump t state

(* Pop [txn]'s worklist one key at a time.  A key [txn] gains while a
   visit runs (a nested release grants it a queued request, or its own
   [on_grant] chain acquires one) is already on the worklist or joins
   its tail, so the loop ends only when [txn] is on no key. *)
let release_all t ~txn =
  Waitfor.remove_node t.waitfor txn;
  let rec loop () =
    match Hashtbl.find_opt t.txns txn with
    | None | Some [] -> ()
    | Some (s :: rest) ->
        if List.is_empty rest then Hashtbl.remove t.txns txn
        else Hashtbl.replace t.txns txn rest;
        visit t ~txn s;
        loop ()
  in
  loop ()

let active t ~txn = Hashtbl.mem t.txns txn

let find t key =
  Option.value (Hashtbl.find_opt t.keys key) ~default:{ holders = []; queue = [] }

let holds t ~txn ~key = List.exists (fun r -> r.txn = txn) (find t key).holders
let holders t ~key = List.map (fun r -> (r.txn, r.mode)) (find t key).holders
let queue_length t ~key = List.length (find t key).queue

let counters t =
  { granted = t.n_granted; blocked = t.n_blocked; deadlocks = t.n_deadlocks }
