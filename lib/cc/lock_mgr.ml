(* Grant order across keys.  A release grants key by key in the order
   [Hashtbl.iter] walks the key table, and each grant's [on_grant] may
   send messages, so that order is part of every run's output.  The
   release visits only the keys it can change, but in that order: bucket
   by bucket ([Hashtbl.hash key] modulo a power-of-two bucket count),
   newest key first within a bucket.  Each key state records its hash and
   insertion index and the manager tracks the bucket count, so two keys
   compare in that order without a walk over the table. *)

module Op = Esr_store.Op

type request = {
  txn : int;
  mode : Lock_table.mode;
  op : Op.t option;
  on_grant : unit -> unit;
}

type key_state = {
  hash : int;  (* [Hashtbl.hash] of the key: its bucket in [t.keys] *)
  born : int;  (* keys in [t.keys] before this one was added *)
  mutable holders : request list;
  mutable queue : request list;
}

(* A [release_all] in progress: the bucket mask of [t.keys] when it
   started, the first [born] its walk no longer sees ([max_int] until
   [t.keys] grows its bucket array), and the last key it visited. *)
type walk = { mask : int; mutable cut : int; mutable at : key_state }

(* The key states a transaction holds or waits on (and possibly some it
   has since left). *)
type txn_keys = { mutable states : key_state list }

type counters = { granted : int; blocked : int; deadlocks : int }

type t = {
  table : Lock_table.t;
  keys : (string, key_state) Hashtbl.t;
  mutable buckets : int;  (* the bucket count of [keys] *)
  txns : (int, txn_keys) Hashtbl.t;
  waitfor : Waitfor.t;
  mutable walks : walk list;  (* releases in progress, innermost first *)
  mutable pumping : key_state list;
      (* keys whose pump is inside an [on_grant], innermost first *)
  mutable n_granted : int;
  mutable n_blocked : int;
  mutable n_deadlocks : int;
}

let initial_buckets = 64

let create ?(table = Lock_table.standard) () =
  {
    table;
    keys = Hashtbl.create ~random:false initial_buckets;
    buckets = initial_buckets;
    txns = Hashtbl.create 16;
    waitfor = Waitfor.create ();
    walks = [];
    pumping = [];
    n_granted = 0;
    n_blocked = 0;
    n_deadlocks = 0;
  }

let table t = t.table

type outcome = Granted | Blocked | Deadlock

(* [Hashtbl] prepends a new key to its bucket, then doubles its bucket
   array once it holds more than two keys per bucket ([~random:false] in
   [create] keeps its hash [Hashtbl.hash]).  A walk running at a doubling
   went on reading the old array: it saw the key that caused the doubling
   but none added after it. *)
let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s =
        { hash = Hashtbl.hash key; born = Hashtbl.length t.keys; holders = []; queue = [] }
      in
      Hashtbl.replace t.keys key s;
      let n = Hashtbl.length t.keys in
      if n > 2 * t.buckets then begin
        List.iter (fun w -> if w.cut = max_int then w.cut <- n) t.walks;
        t.buckets <- 2 * t.buckets
      end;
      s

(* [a] comes before [b] in [Hashtbl.iter] order over a bucket array of
   [mask + 1] slots: by bucket, then newest first within a bucket. *)
let precedes mask a b =
  let ba = a.hash land mask and bb = b.hash land mask in
  ba < bb || (ba = bb && a.born > b.born)

let track t txn state =
  match Hashtbl.find_opt t.txns txn with
  | None -> Hashtbl.replace t.txns txn { states = [ state ] }
  | Some k -> if not (List.memq state k.states) then k.states <- state :: k.states

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

(* Grant the longest admissible FIFO prefix of the queue.  While a grant's
   [on_grant] runs, the key sits on [t.pumping]: its next waiter may be
   admissible already, so a release nested in the callback visits it.  If
   [on_grant] raises, the key stays there, and later releases still pump
   it, as a walk over every key would. *)
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
          let outer = t.pumping in
          t.pumping <- state :: outer;
          next.on_grant ();
          t.pumping <- outer;
          loop ()
        end
  in
  loop ()

let visit t ~txn state =
  let had = List.exists (fun r -> r.txn = txn) state.holders in
  state.holders <- List.filter (fun r -> r.txn <> txn) state.holders;
  state.queue <- List.filter (fun r -> r.txn <> txn) state.queue;
  if had || state.queue <> [] then pump t state

(* Stands before every key in every walk order. *)
let origin = { hash = 0; born = max_int; holders = []; queue = [] }

(* The first key of [states] after [w.at] in [w]'s order that [w] can
   see, if it comes before [best]; else [best]. *)
let rec next_key w best = function
  | [] -> best
  | s :: rest ->
      let best =
        if
          s.born < w.cut && precedes w.mask w.at s
          && (best == w.at || precedes w.mask s best)
        then s
        else best
      in
      next_key w best rest

let own t txn =
  match Hashtbl.find_opt t.txns txn with None -> [] | Some k -> k.states

let present txn state =
  let mine r = r.txn = txn in
  List.exists mine state.holders || List.exists mine state.queue

(* A walk over every key in table order would change a key only if
   [txn] is on it or its queue head is admissible, and outside a pump no
   head is: each release and each grant pumps the key it touched.  So the
   walk visits, in table order, [txn]'s keys (including any it gains
   mid-walk that a full walk would still reach) and the keys whose pump
   is inside an [on_grant] further up the stack. *)
let release_all t ~txn =
  Waitfor.remove_node t.waitfor txn;
  let w = { mask = t.buckets - 1; cut = max_int; at = origin } in
  let outer = t.walks in
  t.walks <- w :: outer;
  let rec loop () =
    let s = next_key w (next_key w w.at (own t txn)) t.pumping in
    if s != w.at then begin
      w.at <- s;
      visit t ~txn s;
      loop ()
    end
  in
  loop ();
  t.walks <- outer;
  (* A key a nested grant handed [txn] behind the walk stays [txn]'s, as
     a full walk would leave it. *)
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some k -> (
      match List.filter (present txn) k.states with
      | [] -> Hashtbl.remove t.txns txn
      | still -> k.states <- still)

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
