(* The reference lock manager and wait-for graph that test_cc's model
   property runs every script against.  [acquire] installs one wait edge
   per blocker, searching the graph for each, and stamps every request.
   [release_all] states the grant order naively: it scans every key for
   the releasing transaction's earliest-stamped request, visits that key,
   and repeats until the transaction is on no key.  It keeps no
   per-transaction index, and no result depends on the key table's
   order. *)

module Lock_table = Esr_cc.Lock_table

module Waitfor = struct
  type t = { edges : (int, (int, unit) Hashtbl.t) Hashtbl.t }

  let create () = { edges = Hashtbl.create 32 }

  let successors t node =
    match Hashtbl.find_opt t.edges node with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 4 in
        Hashtbl.replace t.edges node set;
        set

  let reachable t ~src ~dst =
    let visited = Hashtbl.create 16 in
    let rec walk node =
      if node = dst then true
      else if Hashtbl.mem visited node then false
      else begin
        Hashtbl.replace visited node ();
        match Hashtbl.find_opt t.edges node with
        | None -> false
        | Some set -> Hashtbl.fold (fun next () found -> found || walk next) set false
      end
    in
    walk src

  let add_edge t ~waiter ~holder =
    if waiter = holder then false
    else if reachable t ~src:holder ~dst:waiter then false
    else begin
      Hashtbl.replace (successors t waiter) holder ();
      true
    end

  let remove_edges_from t ~waiter = Hashtbl.remove t.edges waiter

  let remove_node t node =
    Hashtbl.remove t.edges node;
    Hashtbl.iter (fun _ set -> Hashtbl.remove set node) t.edges

  let waits_on t ~waiter =
    match Hashtbl.find_opt t.edges waiter with
    | None -> []
    | Some set -> Hashtbl.fold (fun n () acc -> n :: acc) set [] |> List.sort compare
end

module Op = Esr_store.Op

type request = {
  txn : int;
  mode : Lock_table.mode;
  op : Op.t option;
  on_grant : unit -> unit;
  stamp : int;  (* acquires before this one *)
}

type key_state = { mutable holders : request list; mutable queue : request list }

type counters = { granted : int; blocked : int; deadlocks : int }

type t = {
  table : Lock_table.t;
  keys : (string, key_state) Hashtbl.t;
  waitfor : Waitfor.t;
  mutable stamps : int;
  mutable n_granted : int;
  mutable n_blocked : int;
  mutable n_deadlocks : int;
}

let create ?(table = Lock_table.standard) () =
  {
    table;
    keys = Hashtbl.create 64;
    waitfor = Waitfor.create ();
    stamps = 0;
    n_granted = 0;
    n_blocked = 0;
    n_deadlocks = 0;
  }

let table t = t.table

type outcome = Granted | Blocked | Deadlock

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s = { holders = []; queue = [] } in
      Hashtbl.replace t.keys key s;
      s

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
  let request = { txn; mode; op; on_grant; stamp = t.stamps } in
  t.stamps <- t.stamps + 1;
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
    t.n_granted <- t.n_granted + 1;
    Granted
  end
  else begin
    let blocking = blockers t state request in
    (* Try to install all wait edges; roll back and refuse on a cycle. *)
    let rec install added = function
      | [] -> Ok ()
      | holder :: rest ->
          if Waitfor.add_edge t.waitfor ~waiter:txn ~holder then
            install (holder :: added) rest
          else Error added
    in
    match install [] blocking with
    | Ok () ->
        state.queue <- state.queue @ [ request ];
        t.n_blocked <- t.n_blocked + 1;
        Blocked
    | Error _added ->
        (* Clear any edges we just added (and any stale ones): the caller
           aborts, so all its waits are void. *)
        Waitfor.remove_edges_from t.waitfor ~waiter:txn;
        t.n_deadlocks <- t.n_deadlocks + 1;
        Deadlock
  end

(* Grant the longest admissible FIFO prefix of the queue. *)
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

(* The key with [txn]'s earliest-stamped request, if [txn] is on any.
   Stamps are unique, so the scan order does not matter. *)
let earliest t txn =
  Hashtbl.fold
    (fun _ state best ->
      List.fold_left
        (fun best r ->
          if r.txn <> txn then best
          else
            match best with
            | Some (stamp, _) when stamp < r.stamp -> best
            | _ -> Some (r.stamp, state))
        best (state.holders @ state.queue))
    t.keys None

let release_all t ~txn =
  Waitfor.remove_node t.waitfor txn;
  let rec loop () =
    match earliest t txn with
    | None -> ()
    | Some (_, state) ->
        let had = List.exists (fun r -> r.txn = txn) state.holders in
        state.holders <- List.filter (fun r -> r.txn <> txn) state.holders;
        state.queue <- List.filter (fun r -> r.txn <> txn) state.queue;
        if had || state.queue <> [] then pump t state;
        loop ()
  in
  loop ()

let holds t ~txn ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> false
  | Some state -> List.exists (fun r -> r.txn = txn) state.holders

let holders t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> []
  | Some state -> List.map (fun r -> (r.txn, r.mode)) state.holders

let queue_length t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> 0
  | Some state -> List.length state.queue

let counters t =
  { granted = t.n_granted; blocked = t.n_blocked; deadlocks = t.n_deadlocks }
