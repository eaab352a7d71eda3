(* Tests for Esr_cc: the paper's lock compatibility tables (Tables 2 and 3)
   verified entry by entry, the lock manager, lock-counters, timestamp
   ordering, and the wait-for graph. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Lock_counter = Esr_cc.Lock_counter
module Tso = Esr_cc.Tso
module Waitfor = Esr_cc.Waitfor
module Prng = Esr_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Lock_table.verdict_to_string v))
    ( = )

(* --- Lock tables: the paper's Tables 2 and 3, entry by entry --- *)

let test_standard_table () =
  let check_entry held requested expected =
    Alcotest.check verdict_t "entry" expected
      (Lock_table.check Lock_table.standard ~held ~requested)
  in
  check_entry Lock_table.R Lock_table.R Lock_table.Compatible;
  check_entry Lock_table.R Lock_table.W Lock_table.Conflict;
  check_entry Lock_table.W Lock_table.R Lock_table.Conflict;
  check_entry Lock_table.W Lock_table.W Lock_table.Conflict

(* Paper Table 2: rows/columns RU, WU, RQ.
       RU  WU  RQ
   RU  OK      OK
   WU          OK
   RQ  OK  OK  OK  *)
let test_table2_ordup () =
  let entry held requested =
    Lock_table.check Lock_table.ordup ~held ~requested
  in
  let ok = Lock_table.Compatible and no = Lock_table.Conflict in
  Alcotest.check verdict_t "RU/RU" ok (entry Lock_table.R_u Lock_table.R_u);
  Alcotest.check verdict_t "RU/WU" no (entry Lock_table.R_u Lock_table.W_u);
  Alcotest.check verdict_t "RU/RQ" ok (entry Lock_table.R_u Lock_table.R_q);
  Alcotest.check verdict_t "WU/RU" no (entry Lock_table.W_u Lock_table.R_u);
  Alcotest.check verdict_t "WU/WU" no (entry Lock_table.W_u Lock_table.W_u);
  Alcotest.check verdict_t "WU/RQ" ok (entry Lock_table.W_u Lock_table.R_q);
  Alcotest.check verdict_t "RQ/RU" ok (entry Lock_table.R_q Lock_table.R_u);
  Alcotest.check verdict_t "RQ/WU" ok (entry Lock_table.R_q Lock_table.W_u);
  Alcotest.check verdict_t "RQ/RQ" ok (entry Lock_table.R_q Lock_table.R_q)

(* Paper Table 3:
       RU    WU    RQ
   RU  OK    Comm  OK
   WU  Comm  Comm  OK
   RQ  OK    OK    OK  *)
let test_table3_commu () =
  let entry held requested =
    Lock_table.check Lock_table.commu ~held ~requested
  in
  let ok = Lock_table.Compatible and comm = Lock_table.If_commutes in
  Alcotest.check verdict_t "RU/RU" ok (entry Lock_table.R_u Lock_table.R_u);
  Alcotest.check verdict_t "RU/WU" comm (entry Lock_table.R_u Lock_table.W_u);
  Alcotest.check verdict_t "RU/RQ" ok (entry Lock_table.R_u Lock_table.R_q);
  Alcotest.check verdict_t "WU/RU" comm (entry Lock_table.W_u Lock_table.R_u);
  Alcotest.check verdict_t "WU/WU" comm (entry Lock_table.W_u Lock_table.W_u);
  Alcotest.check verdict_t "WU/RQ" ok (entry Lock_table.W_u Lock_table.R_q);
  Alcotest.check verdict_t "RQ/RU" ok (entry Lock_table.R_q Lock_table.R_u);
  Alcotest.check verdict_t "RQ/WU" ok (entry Lock_table.R_q Lock_table.W_u);
  Alcotest.check verdict_t "RQ/RQ" ok (entry Lock_table.R_q Lock_table.R_q)

let test_table_mode_domain () =
  checkb "ordup rejects plain R" true
    (try
       ignore (Lock_table.check Lock_table.ordup ~held:Lock_table.R ~requested:Lock_table.R_u);
       false
     with Invalid_argument _ -> true)

let test_resolve_commutativity () =
  let incr = Op.Incr 1 and mult = Op.Mult 2 in
  checkb "commuting WU/WU compatible" true
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.W_u, Some (Op.Incr 5)));
  checkb "non-commuting WU/WU conflicts" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.W_u, Some mult));
  checkb "missing op is conservative" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, None)
       ~requested:(Lock_table.W_u, Some incr));
  (* "few examples of commutativity between WU and RU": a read never
     commutes with an increment, so the Comm entry degenerates to
     conflict exactly as the paper notes. *)
  checkb "WU/RU comm degenerates" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.R_u, Some Op.Read))

(* --- Lock manager --- *)

let test_mgr_grant_and_conflict () =
  let m = Lock_mgr.create () in
  checkb "grant" true (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W () = Lock_mgr.Granted);
  checkb "conflicting blocks" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Blocked);
  checkb "holds" true (Lock_mgr.holds m ~txn:1 ~key:"x");
  checki "queue length" 1 (Lock_mgr.queue_length m ~key:"x")

let test_mgr_shared_reads () =
  let m = Lock_mgr.create () in
  checkb "r1" true (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted);
  checkb "r2" true (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted);
  checki "two holders" 2 (List.length (Lock_mgr.holders m ~key:"x"))

let test_mgr_reentrant () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  checkb "own lock compatible" true
    (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted)

let test_mgr_release_wakes_fifo () =
  let m = Lock_mgr.create () in
  let woken = ref [] in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W
       ~on_grant:(fun () -> woken := 2 :: !woken)
       ());
  ignore
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.W
       ~on_grant:(fun () -> woken := 3 :: !woken)
       ());
  Lock_mgr.release_all m ~txn:1;
  Alcotest.(check (list int)) "only head granted" [ 2 ] !woken;
  Lock_mgr.release_all m ~txn:2;
  Alcotest.(check (list int)) "then next" [ 3; 2 ] !woken

let test_mgr_release_grants_compatible_prefix () =
  let m = Lock_mgr.create () in
  let woken = ref [] in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R
       ~on_grant:(fun () -> woken := 2 :: !woken) ());
  ignore
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.R
       ~on_grant:(fun () -> woken := 3 :: !woken) ());
  Lock_mgr.release_all m ~txn:1;
  Alcotest.(check (list int)) "both readers granted" [ 3; 2 ] !woken

let test_mgr_deadlock_detection () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"y" ~mode:Lock_table.W ());
  checkb "t1 waits for y" true
    (Lock_mgr.acquire m ~txn:1 ~key:"y" ~mode:Lock_table.W () = Lock_mgr.Blocked);
  checkb "t2 asking x would deadlock" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W () = Lock_mgr.Deadlock);
  checki "deadlocks counted" 1 (Lock_mgr.counters m).Lock_mgr.deadlocks

let test_mgr_deadlock_victim_can_release () =
  let m = Lock_mgr.create () in
  let t1_got_y = ref false in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"y" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:1 ~key:"y" ~mode:Lock_table.W
       ~on_grant:(fun () -> t1_got_y := true) ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W ());
  (* txn 2 aborts: its y lock is released and txn 1 proceeds. *)
  Lock_mgr.release_all m ~txn:2;
  checkb "t1 unblocked" true !t1_got_y

let test_mgr_commu_table_commuting_writes () =
  let m = Lock_mgr.create ~table:Lock_table.commu () in
  checkb "wu incr" true
    (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 1) ()
     = Lock_mgr.Granted);
  checkb "second commuting incr granted" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 2) ()
     = Lock_mgr.Granted);
  checkb "non-commuting mult blocks" true
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Mult 2) ()
     = Lock_mgr.Blocked)

let test_mgr_ordup_table_query_never_blocks () =
  let m = Lock_mgr.create ~table:Lock_table.ordup () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 1) ());
  checkb "query read sails through" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R_q ~op:Op.Read ()
     = Lock_mgr.Granted)

let test_mgr_queued_fairness_blocks_new_compatible () =
  (* A new request compatible with holders but behind a queued writer must
     not jump the queue (no starvation). *)
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W ());
  checkb "late reader queues behind writer" true
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Blocked)

(* Safety invariant under random traffic: at no point do two transactions
   hold incompatible locks on the same key, and releasing everything
   always drains every queue. *)
let prop_mgr_holders_always_compatible =
  let table_gen =
    QCheck.Gen.oneofl [ Lock_table.standard; Lock_table.ordup; Lock_table.commu ]
  in
  let gen = QCheck.make QCheck.Gen.(pair table_gen (pair int (int_range 10 60))) in
  QCheck.Test.make ~name:"no incompatible co-holders, queues drain" ~count:150 gen
    (fun (table, (seed, steps)) ->
      let prng = Prng.create seed in
      let m = Lock_mgr.create ~table () in
      let keys = [| "a"; "b"; "c" |] in
      let et_modes = List.mem Lock_table.R_q (Lock_table.modes table) in
      let live = ref [] in
      let ok = ref true in
      let check_invariant () =
        Array.iter
          (fun key ->
            let holders = Lock_mgr.holders m ~key in
            List.iter
              (fun (t1, m1) ->
                List.iter
                  (fun (t2, m2) ->
                    if t1 < t2 then begin
                      (* Modes must be pairwise non-Conflict; If_commutes
                         entries were discharged at grant time, so only a
                         hard Conflict verdict is a violation. *)
                      let v = Lock_table.check table ~held:m1 ~requested:m2 in
                      if v = Lock_table.Conflict then ok := false
                    end)
                  holders)
              holders)
          keys
      in
      for txn = 1 to steps do
        let key = keys.(Prng.int prng 3) in
        let mode, op =
          if et_modes then
            match Prng.int prng 3 with
            | 0 -> (Lock_table.R_u, Some Op.Read)
            | 1 -> (Lock_table.W_u, Some (Op.Incr 1))
            | _ -> (Lock_table.R_q, Some Op.Read)
          else if Prng.int prng 2 = 0 then (Lock_table.R, Some Op.Read)
          else (Lock_table.W, Some (Op.Incr 1))
        in
        (match Lock_mgr.acquire m ~txn ~key ~mode ?op () with
        | Lock_mgr.Granted | Lock_mgr.Blocked -> live := txn :: !live
        | Lock_mgr.Deadlock -> ());
        check_invariant ();
        (* Occasionally finish a random live transaction. *)
        if Prng.int prng 3 = 0 && !live <> [] then begin
          let victim = List.nth !live (Prng.int prng (List.length !live)) in
          live := List.filter (fun t -> t <> victim) !live;
          Lock_mgr.release_all m ~txn:victim;
          check_invariant ()
        end
      done;
      List.iter (fun txn -> Lock_mgr.release_all m ~txn) !live;
      Array.iter
        (fun key ->
          if Lock_mgr.queue_length m ~key <> 0 then ok := false)
        keys;
      !ok)

(* A release visits only the releasing transaction's keys: once 4,096
   keys have each been locked, a one-key transaction still costs a flat
   number of words per acquire-release pair (a walk over every key ever
   locked cost about 12 words per key). *)
let test_mgr_release_cost_flat () =
  let m = Lock_mgr.create () in
  for txn = 0 to 4095 do
    ignore (Lock_mgr.acquire m ~txn ~key:(Printf.sprintf "k%d" txn) ~mode:Lock_table.W ());
    Lock_mgr.release_all m ~txn
  done;
  let keys = Array.init 100 (fun i -> Printf.sprintf "k%d" (i * 40)) in
  let w0 = Gc.minor_words () in
  for i = 0 to 99 do
    let txn = 10_000 + i in
    ignore (Lock_mgr.acquire m ~txn ~key:keys.(i) ~mode:Lock_table.W ());
    Lock_mgr.release_all m ~txn
  done;
  let per_pair = (Gc.minor_words () -. w0) /. 100. in
  checkb
    (Printf.sprintf "%.1f minor words per acquire-release pair <= 128" per_pair)
    true (per_pair <= 128.)

(* --- Model test: the lock manager against its reference --- *)

(* What both implementations offer, so one driver runs a script on
   either. *)
module type LOCK_MGR = sig
  type t
  type outcome = Granted | Blocked | Deadlock
  type counters = { granted : int; blocked : int; deadlocks : int }

  val acquire :
    t ->
    txn:int ->
    key:string ->
    mode:Lock_table.mode ->
    ?op:Op.t ->
    ?on_grant:(unit -> unit) ->
    unit ->
    outcome

  val release_all : t -> txn:int -> unit
  val holds : t -> txn:int -> key:string -> bool
  val holders : t -> key:string -> (int * Lock_table.mode) list
  val queue_length : t -> key:string -> int
  val counters : t -> counters
end

(* What a transaction does once its last request is granted: nothing, as
   a dc-scheduler ET still running; release itself, as a 2PC query after
   its read; or release another transaction. *)
type finish = Stay | Release_self | Release_other of int

type step =
  | Acquire of {
      txn : int;
      requests : (string * Lock_table.mode * Op.t option) list;
      finish : finish;
    }
  | Release of int

(* Run [script] on [m], logging every outcome, grant and release in
   order, and snapshot every key's holders, queue length and
   per-transaction [holds] plus the counters after each step (only every
   16th step, and the last, on big key pools). *)
module Driver (M : LOCK_MGR) = struct
  let run m ~keys ~txns script =
    let log = ref [] in
    let say fmt = Printf.ksprintf (fun line -> log := line :: !log) fmt in
    let release txn =
      say "release %d" txn;
      M.release_all m ~txn
    in
    (* 2PC's acquire_all: one key at a time, each grant continuing with
       the next key, a deadlock refusal releasing the whole transaction. *)
    let rec next txn finish = function
      | [] -> (
          match finish with
          | Stay -> ()
          | Release_self -> release txn
          | Release_other other -> release other)
      | (key, mode, op) :: rest -> (
          let continue () = next txn finish rest in
          let on_grant () =
            say "grant %d %s" txn key;
            continue ()
          in
          match M.acquire m ~txn ~key ~mode ?op ~on_grant () with
          | M.Granted ->
              say "granted %d %s" txn key;
              continue ()
          | M.Blocked -> say "blocked %d %s" txn key
          | M.Deadlock ->
              say "deadlock %d %s" txn key;
              release txn)
    in
    let every = if Array.length keys > 64 then 16 else 1 in
    let last = List.length script - 1 in
    let snapshot () =
      let c = M.counters m in
      ( (c.M.granted, c.M.blocked, c.M.deadlocks),
        Array.map
          (fun key ->
            ( M.holders m ~key,
              M.queue_length m ~key,
              List.map (fun txn -> M.holds m ~txn ~key) txns ))
          keys )
    in
    let snapshots =
      List.mapi
        (fun i step ->
          (match step with
          | Acquire { txn; requests; finish } -> next txn finish requests
          | Release txn -> release txn);
          if i mod every = 0 || i = last then Some (snapshot ()) else None)
        script
    in
    (List.rev !log, snapshots)
end

module Current = Driver (Lock_mgr)
module Reference = Driver (Lock_mgr_ref)

(* A random script: a few hot keys and a cold tail (over 128 keys in some
   runs, so the key table grows its bucket array mid-run), transactions
   that queue several requests or chain them 2PC-style, and grant
   callbacks that release the same or another transaction.  Ops are
   chosen so Table 3's [If_commutes] resolves both ways. *)
let gen_script prng =
  let table =
    [| Lock_table.standard; Lock_table.ordup; Lock_table.commu |].(Prng.int prng 3)
  in
  let n_keys = [| 3; 8; 40; 300 |].(Prng.int prng 4) in
  let keys = Array.init n_keys (Printf.sprintf "k%d") in
  let n_txns = 3 + Prng.int prng 8 in
  let txns = List.init n_txns (fun i -> i + 1) in
  let steps = if n_keys > 64 then 400 else 10 + Prng.int prng 60 in
  let pick_key () =
    if Prng.bool prng then keys.(Prng.int prng (min 4 n_keys))
    else keys.(Prng.int prng n_keys)
  in
  let pick_request () =
    let key = pick_key () in
    let mode, op =
      if table == Lock_table.standard then
        if Prng.bool prng then (Lock_table.R, Some Op.Read)
        else (Lock_table.W, Some (Op.Incr 1))
      else
        match Prng.int prng 4 with
        | 0 -> (Lock_table.R_u, Some Op.Read)
        | 1 -> (Lock_table.W_u, Some (Op.Incr 1))
        | 2 -> (Lock_table.W_u, Some (Op.Mult 2))
        | _ -> (Lock_table.R_q, Some Op.Read)
    in
    (key, mode, op)
  in
  let script =
    List.init steps (fun _ ->
        let txn = 1 + Prng.int prng n_txns in
        if Prng.int prng 4 = 0 then Release txn
        else
          let requests = List.init (1 + Prng.int prng 4) (fun _ -> pick_request ()) in
          let finish =
            match Prng.int prng 4 with
            | 0 -> Release_self
            | 1 -> Release_other (1 + Prng.int prng n_txns)
            | _ -> Stay
          in
          Acquire { txn; requests; finish })
  in
  (table, keys, txns, script)

(* The key table doubles its 64 buckets at its 129th key.  Here that key
   is added during A's release, by a grant that release made; a nested
   release then hands A a lock, and A's callback adds a 130th key.  The
   full walk was still reading the old bucket array, so it never met the
   130th key and A kept that lock: the manager must agree.  The key names
   are picked so the walk meets [h] before [q] and the 130th key falls
   after [h] in the old array. *)
let test_mgr_release_across_resize () =
  let bucket key = Hashtbl.hash key land 63 in
  let name i = Printf.sprintf "x%d" i in
  let rec find i ok = if ok (name i) then name i else find (i + 1) ok in
  let h = find 0 (fun k -> bucket k < 32) in
  let q = find 0 (fun k -> bucket k > bucket h) in
  let n2 = find 0 (fun k -> k <> q && bucket k > bucket h) in
  let n1 = find 0 (fun k -> k <> h && k <> q && k <> n2) in
  let w key = (key, Lock_table.W, None) in
  let prefill =
    List.init 126 (fun i ->
        Acquire { txn = 100 + i; requests = [ w (Printf.sprintf "p%d" i) ]; finish = Release_self })
  in
  let script =
    prefill
    @ [
        Acquire { txn = 1; requests = [ w h ]; finish = Stay };
        Acquire { txn = 3; requests = [ w q ]; finish = Stay };
        Acquire { txn = 1; requests = [ w q; w n2 ]; finish = Stay };
        Acquire { txn = 2; requests = [ w h; w n1 ]; finish = Release_other 3 };
        Release 1;
      ]
  in
  let keys = [| h; q; n1; n2 |] and txns = [ 1; 2; 3 ] in
  let m = Lock_mgr.create () in
  let ((log, _) as current) = Current.run m ~keys ~txns script in
  checkb "same as reference" true
    (current = Reference.run (Lock_mgr_ref.create ()) ~keys ~txns script);
  let rec after first later = function
    | [] -> false
    | line :: rest -> if line = first then List.mem later rest else after first later rest
  in
  checkb "A gets the 130th key during its own release" true
    (after "release 1" (Printf.sprintf "granted 1 %s" n2) log);
  checkb "and keeps it" true (Lock_mgr.holds m ~txn:1 ~key:n2)

let prop_mgr_matches_reference =
  QCheck.Test.make ~name:"lock manager matches its reference" ~count:300
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let table, keys, txns, script = gen_script (Prng.create seed) in
      Current.run (Lock_mgr.create ~table ()) ~keys ~txns script
      = Reference.run (Lock_mgr_ref.create ~table ()) ~keys ~txns script)

(* --- Lock counters --- *)

let test_counter_basic () =
  let c = Lock_counter.create () in
  checki "zero" 0 (Lock_counter.count c "x");
  checki "one" 1 (Lock_counter.incr c "x");
  checki "two" 2 (Lock_counter.incr c "x");
  checki "one again" 1 (Lock_counter.decr c "x");
  checki "zero again" 0 (Lock_counter.decr c "x");
  checkb "underflow raises" true
    (try
       ignore (Lock_counter.decr c "x");
       false
     with Invalid_argument _ -> true)

let test_counter_nonzero_tracking () =
  let c = Lock_counter.create () in
  ignore (Lock_counter.incr c "x");
  ignore (Lock_counter.incr c "y");
  checki "two nonzero" 2 (Lock_counter.total_nonzero c);
  ignore (Lock_counter.decr c "x");
  checki "one nonzero" 1 (Lock_counter.total_nonzero c)

let test_counter_limit () =
  let c = Lock_counter.create () in
  ignore (Lock_counter.incr c "x");
  checkb "at limit" true (Lock_counter.would_exceed c "x" ~limit:1);
  checkb "below limit" false (Lock_counter.would_exceed c "x" ~limit:2)

let test_counter_weights () =
  let c = Lock_counter.create () in
  Alcotest.check (Alcotest.float 1e-9) "zero" 0.0 (Lock_counter.weight c "x");
  Alcotest.check (Alcotest.float 1e-9) "add" 5.0 (Lock_counter.add_weight c "x" 5.0);
  Alcotest.check (Alcotest.float 1e-9) "abs of negative" 8.0
    (Lock_counter.add_weight c "x" (-3.0));
  Alcotest.check (Alcotest.float 1e-9) "remove" 3.0
    (Lock_counter.remove_weight c "x" 5.0);
  Alcotest.check (Alcotest.float 1e-9) "clamped at zero" 0.0
    (Lock_counter.remove_weight c "x" 100.0);
  checkb "exceed check" true
    (Lock_counter.weight_would_exceed c "x" ~added:2.0 ~limit:1.5);
  checkb "within check" false
    (Lock_counter.weight_would_exceed c "x" ~added:1.0 ~limit:1.5)

let prop_counter_weight_never_negative =
  QCheck.Test.make ~name:"pending weight never negative" ~count:300
    QCheck.(list (pair bool (float_range (-50.) 50.)))
    (fun events ->
      let c = Lock_counter.create () in
      List.iter
        (fun (add, w) ->
          if add then ignore (Lock_counter.add_weight c "k" w)
          else ignore (Lock_counter.remove_weight c "k" w))
        events;
      Lock_counter.weight c "k" >= 0.0)

(* --- Tso --- *)

let test_tso_update_rules () =
  let t = Tso.create () in
  checkb "write ts5" true (Tso.check_update_write t ~key:"x" ~ts:5 = Tso.Accept);
  checkb "older write rejected" true
    (Tso.check_update_write t ~key:"x" ~ts:3 = Tso.Reject_stale);
  checkb "older read rejected" true
    (Tso.check_update_read t ~key:"x" ~ts:3 = Tso.Reject_stale);
  checkb "newer read ok" true (Tso.check_update_read t ~key:"x" ~ts:7 = Tso.Accept);
  checkb "write below read rejected" true
    (Tso.check_update_write t ~key:"x" ~ts:6 = Tso.Reject_stale);
  checkb "write above read ok" true
    (Tso.check_update_write t ~key:"x" ~ts:8 = Tso.Accept)

let test_tso_query_reads_dont_constrain () =
  let t = Tso.create () in
  ignore (Tso.check_update_write t ~key:"x" ~ts:10);
  checkb "stale query read flagged" true
    (Tso.check_query_read t ~key:"x" ~ts:5 = Tso.Out_of_order);
  checkb "fresh query read in order" true
    (Tso.check_query_read t ~key:"x" ~ts:15 = Tso.In_order);
  (* Unlike an update read, the query read must not have bumped the read
     timestamp: a ts-12 write is still admissible. *)
  checkb "updates unconstrained by query" true
    (Tso.check_update_write t ~key:"x" ~ts:12 = Tso.Accept)

(* --- Waitfor --- *)

let test_waitfor_cycle_rejected () =
  let g = Waitfor.create () in
  checkb "1->2" true (Waitfor.add_edges g ~waiter:1 [ 2 ]);
  checkb "2->3" true (Waitfor.add_edges g ~waiter:2 [ 3 ]);
  checkb "3->1 closes cycle" false (Waitfor.add_edges g ~waiter:3 [ 1 ]);
  checkb "self edge rejected" false (Waitfor.add_edges g ~waiter:1 [ 1 ])

let test_waitfor_remove_unblocks () =
  let g = Waitfor.create () in
  ignore (Waitfor.add_edges g ~waiter:1 [ 2 ]);
  ignore (Waitfor.add_edges g ~waiter:2 [ 3 ]);
  Waitfor.remove_node g 2;
  checkb "edge through removed node gone" false (Waitfor.reachable g ~src:1 ~dst:3);
  checkb "cycle now allowed" true (Waitfor.add_edges g ~waiter:3 [ 1 ])

let test_waitfor_reachability () =
  let g = Waitfor.create () in
  ignore (Waitfor.add_edges g ~waiter:1 [ 2 ]);
  ignore (Waitfor.add_edges g ~waiter:2 [ 3 ]);
  ignore (Waitfor.add_edges g ~waiter:2 [ 4 ]);
  checkb "transitive" true (Waitfor.reachable g ~src:1 ~dst:4);
  checkb "no back path" false (Waitfor.reachable g ~src:4 ~dst:1);
  Alcotest.(check (list int)) "waits_on" [ 3; 4 ] (Waitfor.waits_on g ~waiter:2)

(* qcheck: random edge insertions never create a cycle. *)
let prop_waitfor_stays_acyclic =
  QCheck.Test.make ~name:"waitfor graph stays acyclic" ~count:200
    QCheck.(list (pair (int_range 0 8) (int_range 0 8)))
    (fun edges ->
      let g = Waitfor.create () in
      List.iter
        (fun (a, b) -> ignore (Waitfor.add_edges g ~waiter:a [ b ]))
        edges;
      (* Acyclicity: no node reaches itself through at least one edge. *)
      List.for_all
        (fun n ->
          List.for_all
            (fun next -> not (Waitfor.reachable g ~src:next ~dst:n))
            (Waitfor.waits_on g ~waiter:n))
        (List.init 9 Fun.id))

let () =
  ignore (Value.zero);
  Alcotest.run "esr_cc"
    [
      ( "lock tables",
        [
          Alcotest.test_case "standard 2PL" `Quick test_standard_table;
          Alcotest.test_case "Table 2 (ORDUP)" `Quick test_table2_ordup;
          Alcotest.test_case "Table 3 (COMMU)" `Quick test_table3_commu;
          Alcotest.test_case "mode domain" `Quick test_table_mode_domain;
          Alcotest.test_case "resolve commutativity" `Quick test_resolve_commutativity;
        ] );
      ( "lock manager",
        [
          Alcotest.test_case "grant/conflict" `Quick test_mgr_grant_and_conflict;
          Alcotest.test_case "shared reads" `Quick test_mgr_shared_reads;
          Alcotest.test_case "reentrant" `Quick test_mgr_reentrant;
          Alcotest.test_case "release wakes FIFO" `Quick test_mgr_release_wakes_fifo;
          Alcotest.test_case "grants compatible prefix" `Quick
            test_mgr_release_grants_compatible_prefix;
          Alcotest.test_case "deadlock detection" `Quick test_mgr_deadlock_detection;
          Alcotest.test_case "victim release unblocks" `Quick
            test_mgr_deadlock_victim_can_release;
          Alcotest.test_case "commu commuting writes" `Quick
            test_mgr_commu_table_commuting_writes;
          Alcotest.test_case "ordup query never blocks" `Quick
            test_mgr_ordup_table_query_never_blocks;
          Alcotest.test_case "FIFO fairness" `Quick
            test_mgr_queued_fairness_blocks_new_compatible;
          QCheck_alcotest.to_alcotest prop_mgr_holders_always_compatible;
          Alcotest.test_case "release cost flat in keys ever locked" `Quick
            test_mgr_release_cost_flat;
          Alcotest.test_case "release across a key-table resize" `Quick
            test_mgr_release_across_resize;
          QCheck_alcotest.to_alcotest prop_mgr_matches_reference;
        ] );
      ( "lock counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "nonzero tracking" `Quick test_counter_nonzero_tracking;
          Alcotest.test_case "limit" `Quick test_counter_limit;
          Alcotest.test_case "weights" `Quick test_counter_weights;
          QCheck_alcotest.to_alcotest prop_counter_weight_never_negative;
        ] );
      ( "tso",
        [
          Alcotest.test_case "update rules" `Quick test_tso_update_rules;
          Alcotest.test_case "query reads free" `Quick
            test_tso_query_reads_dont_constrain;
        ] );
      ( "waitfor",
        [
          Alcotest.test_case "cycle rejected" `Quick test_waitfor_cycle_rejected;
          Alcotest.test_case "remove unblocks" `Quick test_waitfor_remove_unblocks;
          Alcotest.test_case "reachability" `Quick test_waitfor_reachability;
          QCheck_alcotest.to_alcotest prop_waitfor_stays_acyclic;
        ] );
    ]
