module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Tso = Esr_cc.Tso
module Et = Esr_core.Et
module Hist = Esr_core.Hist
module Epsilon = Esr_core.Epsilon

type discipline = Two_phase of Lock_table.t | Timestamp_esr

type status = Running | Waiting | Committed | Aborted

type handle = {
  id : Et.id;
  kind : Et.kind;
  eps : Epsilon.counter;
  ts : int;  (* timestamp under Timestamp_esr *)
  mutable hstatus : status;
  mutable effects : (string * Op.t * Store.undo) list;  (* newest first *)
  mutable waiting_ops : int;
  mutable pending_aborts : (unit -> unit) list;
      (* callbacks of queued lock requests, notified if the ET dies *)
}

type op_outcome =
  | Executed of Value.t
  | Wait
  | Refused_stale
  | Refused_epsilon
  | Refused_deadlock

type counters = {
  committed : int;
  aborted : int;
  deadlock_aborts : int;
  stale_aborts : int;
  epsilon_refusals : int;
  charged_units : int;
}

type t = {
  store : Store.t;
  discipline : discipline;
  locks : Lock_mgr.t;  (* unused under Timestamp_esr *)
  tso : Tso.t;  (* unused under Two_phase *)
  mutable next_id : int;
  mutable next_ts : int;
  mutable exec_log : (handle * Et.action) list;  (* newest first *)
  live : (Et.id, handle) Hashtbl.t;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_deadlock : int;
  mutable n_stale : int;
  mutable n_eps_refused : int;
  mutable n_charged : int;
}

let create ?(discipline = Two_phase Lock_table.standard) store =
  let table =
    match discipline with Two_phase table -> table | Timestamp_esr -> Lock_table.standard
  in
  {
    store;
    discipline;
    locks = Lock_mgr.create ~table ();
    tso = Tso.create ();
    next_id = 0;
    next_ts = 0;
    exec_log = [];
    live = Hashtbl.create 16;
    n_committed = 0;
    n_aborted = 0;
    n_deadlock = 0;
    n_stale = 0;
    n_eps_refused = 0;
    n_charged = 0;
  }

let store t = t.store

let begin_et t ~kind ?(epsilon = Epsilon.Unlimited) () =
  t.next_id <- t.next_id + 1;
  t.next_ts <- t.next_ts + 1;
  let handle =
    {
      id = t.next_id;
      kind;
      eps = Epsilon.create epsilon;
      ts = t.next_ts;
      hstatus = Running;
      effects = [];
      waiting_ops = 0;
      pending_aborts = [];
    }
  in
  Hashtbl.replace t.live handle.id handle;
  handle

let kind h = h.kind
let charged h = Epsilon.value h.eps
let status h = h.hstatus

let ensure_alive h =
  match h.hstatus with
  | Running | Waiting -> ()
  | Committed | Aborted ->
      invalid_arg
        (Printf.sprintf "Scheduler: ET%d is already finished" h.id)

(* Lock mode for an operation under the given table's vocabulary. *)
let lock_mode table ~kind op =
  let et_modes = List.mem Lock_table.R_q (Lock_table.modes table) in
  match (kind, Op.is_read op, et_modes) with
  | Et.Query, true, true -> Lock_table.R_q
  | Et.Query, true, false -> Lock_table.R
  | Et.Update, true, true -> Lock_table.R_u
  | Et.Update, true, false -> Lock_table.R
  | Et.Update, false, true -> Lock_table.W_u
  | Et.Update, false, false -> Lock_table.W
  | Et.Query, false, _ -> invalid_arg "Scheduler: query ETs may only read"

let execute t h ~key op =
  (match op with
  | Op.Read -> ()
  | Op.Write _ | Op.Incr _ | Op.Mult _ | Op.Div _ | Op.Timed_write _ | Op.Append _
    -> (
      match Store.apply t.store key op with
      | Ok undo -> h.effects <- (key, op, undo) :: h.effects
      | Error _ -> invalid_arg "Scheduler: operation failed to apply"));
  t.exec_log <- (h, Et.action ~et:h.id ~key op) :: t.exec_log;
  Store.get t.store key

let finish_abort t h =
  (* Undo newest-first.  Operations with a logical inverse are undone by
     applying it — essential under Table 3, where a commuting writer may
     have modified the object after us, so a before-image restore would
     erase its effect.  Operations without an inverse held an exclusive
     lock (nothing commutes with a plain write), so their before-image is
     still accurate. *)
  List.iter
    (fun (key, op, undo) ->
      match Op.inverse op with
      | Some inverse -> (
          match Store.apply t.store key inverse with
          | Ok _ -> ()
          | Error _ -> invalid_arg "Scheduler: inverse failed during abort")
      | None -> Store.rollback t.store undo)
    h.effects;
  h.effects <- [];
  Lock_mgr.release_all t.locks ~txn:h.id;
  h.hstatus <- Aborted;
  Hashtbl.remove t.live h.id;
  t.n_aborted <- t.n_aborted + 1;
  let pending = h.pending_aborts in
  h.pending_aborts <- [];
  List.iter (fun notify -> notify ()) pending

(* In ET-lock disciplines a query read is compatible with uncommitted
   update writers (Tables 2/3); the ESR price is one inconsistency unit
   per such writer whose dirty value the read may include. *)
let query_read_charge t h ~key =
  let writers =
    List.filter
      (fun (txn, mode) ->
        txn <> h.id && (mode = Lock_table.W_u || mode = Lock_table.W))
      (Lock_mgr.holders t.locks ~key)
  in
  let n = List.length writers in
  if n = 0 then true
  else if Epsilon.try_charge h.eps n then begin
    t.n_charged <- t.n_charged + n;
    true
  end
  else false

let submit_two_phase t h table ~key op ~k =
  if h.kind = Et.Query && not (Op.is_read op) then
    invalid_arg "Scheduler: query ETs may only read";
  let mode = lock_mode table ~kind:h.kind op in
  if h.kind = Et.Query && not (query_read_charge t h ~key) then begin
    t.n_eps_refused <- t.n_eps_refused + 1;
    Refused_epsilon
  end
  else begin
    let granted = ref false in
    let on_grant () =
      granted := true;
      if h.hstatus = Waiting || h.hstatus = Running then begin
        h.waiting_ops <- h.waiting_ops - 1;
        if h.waiting_ops = 0 && h.hstatus = Waiting then h.hstatus <- Running;
        let value = execute t h ~key op in
        k (Executed value)
      end
    in
    match Lock_mgr.acquire t.locks ~txn:h.id ~key ~mode ~op ~on_grant () with
    | Lock_mgr.Granted -> Executed (execute t h ~key op)
    | Lock_mgr.Blocked ->
        h.waiting_ops <- h.waiting_ops + 1;
        h.hstatus <- Waiting;
        h.pending_aborts <-
          (fun () -> if not !granted then k Refused_deadlock) :: h.pending_aborts;
        Wait
    | Lock_mgr.Deadlock ->
        t.n_deadlock <- t.n_deadlock + 1;
        finish_abort t h;
        Refused_deadlock
  end

let submit_tso t h ~key op =
  if h.kind = Et.Query && not (Op.is_read op) then
    invalid_arg "Scheduler: query ETs may only read";
  match (h.kind, Op.is_read op) with
  | Et.Query, _ -> (
      match Tso.check_query_read t.tso ~key ~ts:h.ts with
      | Tso.In_order -> Executed (execute t h ~key op)
      | Tso.Out_of_order ->
          if Epsilon.try_charge h.eps 1 then begin
            t.n_charged <- t.n_charged + 1;
            Executed (execute t h ~key op)
          end
          else begin
            t.n_eps_refused <- t.n_eps_refused + 1;
            Refused_epsilon
          end)
  | Et.Update, true -> (
      match Tso.check_update_read t.tso ~key ~ts:h.ts with
      | Tso.Accept -> Executed (execute t h ~key op)
      | Tso.Reject_stale ->
          t.n_stale <- t.n_stale + 1;
          finish_abort t h;
          Refused_stale)
  | Et.Update, false -> (
      match Tso.check_update_write t.tso ~key ~ts:h.ts with
      | Tso.Accept -> Executed (execute t h ~key op)
      | Tso.Reject_stale ->
          t.n_stale <- t.n_stale + 1;
          finish_abort t h;
          Refused_stale)

let submit t h ~key op ?(k = fun _ -> ()) () =
  ensure_alive h;
  match t.discipline with
  | Two_phase table -> submit_two_phase t h table ~key op ~k
  | Timestamp_esr -> submit_tso t h ~key op

let commit t h =
  ensure_alive h;
  if h.waiting_ops > 0 then
    invalid_arg (Printf.sprintf "Scheduler: ET%d still has waiting operations" h.id);
  h.hstatus <- Committed;
  Hashtbl.remove t.live h.id;
  Lock_mgr.release_all t.locks ~txn:h.id;
  t.n_committed <- t.n_committed + 1

let abort t h =
  ensure_alive h;
  finish_abort t h

let history t =
  t.exec_log
  |> List.filter (fun (h, _) -> h.hstatus = Committed)
  |> List.rev_map snd
  |> Hist.of_actions

let counters t =
  {
    committed = t.n_committed;
    aborted = t.n_aborted;
    deadlock_aborts = t.n_deadlock;
    stale_aborts = t.n_stale;
    epsilon_refusals = t.n_eps_refused;
    charged_units = t.n_charged;
  }
