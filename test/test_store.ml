(* Tests for Esr_store: values, operation semantics (commutativity,
   inverses, read-independence), the single-version store with RITU
   timestamps, and the multiversion store with VTNC visibility. *)

module Value = Esr_store.Value
module Op = Esr_store.Op
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Keyspace = Esr_store.Keyspace
module Gtime = Esr_clock.Gtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let value_t = Alcotest.testable Value.pp Value.equal

let gt c s = Gtime.make ~counter:c ~site:s

(* --- Value --- *)

let test_value_basics () =
  checkb "int eq" true (Value.equal (Value.int 3) (Value.Int 3));
  checkb "str eq" true (Value.equal (Value.str "x") (Value.Str "x"));
  checkb "cross neq" false (Value.equal (Value.int 0) (Value.str "0"));
  Alcotest.(check (option int)) "as_int" (Some 5) (Value.as_int (Value.int 5));
  Alcotest.(check (option int)) "as_int str" None (Value.as_int (Value.str "5"));
  checkb "compare total" true (Value.compare (Value.int 1) (Value.str "a") < 0)

(* --- Op semantics --- *)

let test_op_classes () =
  checkb "read is read" true (Op.is_read Op.Read);
  checkb "incr is update" true (Op.is_update (Op.Incr 1));
  checkb "write is update" true (Op.is_update (Op.Write (Value.int 1)))

let test_op_commutes_matrix () =
  let tw = Op.Timed_write { ts = gt 1 0; value = Value.int 1 } in
  let ap = Op.Append { ts = gt 1 0; value = Value.int 1 } in
  checkb "R/R" true (Op.commutes Op.Read Op.Read);
  checkb "Inc/Inc" true (Op.commutes (Op.Incr 1) (Op.Incr 2));
  checkb "Mul/Mul" true (Op.commutes (Op.Mult 2) (Op.Mult 3));
  checkb "Mul/Div" true (Op.commutes (Op.Mult 2) (Op.Div 3));
  checkb "TW/TW" true (Op.commutes tw tw);
  checkb "App/App" true (Op.commutes ap ap);
  checkb "Inc/Mul conflicts" false (Op.commutes (Op.Incr 1) (Op.Mult 2));
  checkb "Inc/R conflicts" false (Op.commutes (Op.Incr 1) Op.Read);
  checkb "W/W conflicts" false
    (Op.commutes (Op.Write (Value.int 1)) (Op.Write (Value.int 2)));
  checkb "W/R conflicts" false (Op.commutes (Op.Write (Value.int 1)) Op.Read);
  checkb "TW/Inc conflicts" false (Op.commutes tw (Op.Incr 1))

let test_op_read_independent () =
  checkb "timed write" true
    (Op.read_independent (Op.Timed_write { ts = gt 1 0; value = Value.int 1 }));
  checkb "append" true
    (Op.read_independent (Op.Append { ts = gt 1 0; value = Value.int 1 }));
  checkb "incr not" false (Op.read_independent (Op.Incr 1));
  checkb "write not" false (Op.read_independent (Op.Write (Value.int 1)))

let test_op_inverse () =
  checkb "incr" true (Op.inverse (Op.Incr 5) = Some (Op.Incr (-5)));
  checkb "mult" true (Op.inverse (Op.Mult 3) = Some (Op.Div 3));
  checkb "div" true (Op.inverse (Op.Div 3) = Some (Op.Mult 3));
  checkb "write none" true (Op.inverse (Op.Write (Value.int 1)) = None);
  checkb "read none" true (Op.inverse Op.Read = None)

let test_op_apply_value () =
  let ok = function Ok v -> v | Error _ -> Alcotest.fail "apply failed" in
  Alcotest.check value_t "incr" (Value.int 7) (ok (Op.apply_value (Op.Incr 3) (Value.int 4)));
  Alcotest.check value_t "mult" (Value.int 8) (ok (Op.apply_value (Op.Mult 2) (Value.int 4)));
  Alcotest.check value_t "div" (Value.int 2) (ok (Op.apply_value (Op.Div 2) (Value.int 4)));
  Alcotest.check value_t "write" (Value.str "x")
    (ok (Op.apply_value (Op.Write (Value.str "x")) (Value.int 4)));
  Alcotest.check value_t "read is identity" (Value.int 4)
    (ok (Op.apply_value Op.Read (Value.int 4)))

let test_op_apply_errors () =
  checkb "incr on str" true
    (Result.is_error (Op.apply_value (Op.Incr 1) (Value.str "a")));
  checkb "div by zero" true
    (Result.is_error (Op.apply_value (Op.Div 0) (Value.int 4)));
  checkb "inexact div" true
    (Result.is_error (Op.apply_value (Op.Div 3) (Value.int 4)))

(* The §4.1 compensation identity: Inc;Mul;Dec <> Mul, but
   Inc;Mul;Div;Dec;Mul = Mul. *)
let test_compensation_identity_4_1 () =
  let apply ops init =
    List.fold_left
      (fun v op ->
        match Op.apply_value op v with Ok v -> v | Error _ -> Alcotest.fail "apply")
      init ops
  in
  let x0 = Value.int 5 in
  let naive = apply [ Op.Incr 10; Op.Mult 2; Op.Incr (-10) ] x0 in
  let just_mul = apply [ Op.Mult 2 ] x0 in
  checkb "naive compensation is wrong" false (Value.equal naive just_mul);
  let correct =
    apply [ Op.Incr 10; Op.Mult 2; Op.Div 2; Op.Incr (-10); Op.Mult 2 ] x0
  in
  Alcotest.check value_t "undo-redo compensation is exact" just_mul correct

(* qcheck: commuting ops really commute on all integer states. *)
let arith_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun d -> Op.Incr d) (int_range (-20) 20);
        map (fun k -> Op.Mult k) (int_range 1 5);
        return Op.Read;
        map (fun v -> Op.Write (Value.int v)) (int_range (-50) 50);
      ])

let prop_commute_is_semantic =
  QCheck.Test.make ~name:"Op.commutes implies state equality both ways"
    ~count:500
    (QCheck.make QCheck.Gen.(triple arith_op_gen arith_op_gen (int_range (-100) 100)))
    (fun (a, b, x) ->
      if Op.commutes a b then begin
        let apply op v = match Op.apply_value op v with Ok v -> v | Error _ -> v in
        let ab = apply b (apply a (Value.int x)) in
        let ba = apply a (apply b (Value.int x)) in
        Value.equal ab ba
      end
      else true)

let prop_commutes_symmetric =
  QCheck.Test.make ~name:"Op.commutes is symmetric" ~count:500
    (QCheck.make QCheck.Gen.(pair arith_op_gen arith_op_gen))
    (fun (a, b) -> Op.commutes a b = Op.commutes b a)

let prop_inverse_cancels =
  QCheck.Test.make ~name:"logical inverse cancels the operation" ~count:500
    (QCheck.make QCheck.Gen.(pair arith_op_gen (int_range (-100) 100)))
    (fun (op, x) ->
      match Op.inverse op with
      | None -> true
      | Some inv -> (
          let v0 = Value.int x in
          match Op.apply_value op v0 with
          | Error _ -> true
          | Ok v1 -> (
              match Op.apply_value inv v1 with
              | Error _ -> false
              | Ok v2 -> Value.equal v0 v2)))

(* --- Keyspace --- *)

let test_keyspace_round_trip () =
  let ks = Keyspace.create ~hint:2 () in
  checki "empty" 0 (Keyspace.size ks);
  checki "first id" 0 (Keyspace.intern ks "a");
  checki "second id" 1 (Keyspace.intern ks "b");
  checki "re-intern is stable" 0 (Keyspace.intern ks "a");
  checki "size" 2 (Keyspace.size ks);
  Alcotest.(check string) "name of 0" "a" (Keyspace.name ks 0);
  Alcotest.(check string) "name of 1" "b" (Keyspace.name ks 1);
  checki "find hit" 1 (Keyspace.find ks "b");
  checki "find miss is -1" (-1) (Keyspace.find ks "zzz");
  checkb "find does not intern" true (Keyspace.size ks = 2);
  checkb "mem" true (Keyspace.mem ks "a");
  checkb "not mem" false (Keyspace.mem ks "zzz")

let test_keyspace_growth () =
  let ks = Keyspace.create ~hint:1 () in
  for i = 0 to 999 do
    checki "dense ids in intern order" i
      (Keyspace.intern ks (Printf.sprintf "key%d" i))
  done;
  checki "size" 1000 (Keyspace.size ks);
  (* Every id still resolves after the doubling cascade. *)
  for i = 0 to 999 do
    Alcotest.(check string) "name survives growth"
      (Printf.sprintf "key%d" i) (Keyspace.name ks i)
  done;
  let seen = ref 0 in
  Keyspace.iter ks (fun _name _id -> incr seen);
  checki "iter covers all" 1000 !seen;
  Alcotest.check_raises "name out of range"
    (Invalid_argument "Keyspace.name: id out of range") (fun () ->
      ignore (Keyspace.name ks 1000))

(* --- Store --- *)

let test_store_id_api_round_trip () =
  let ks = Keyspace.create () in
  let a = Store.create ~keyspace:ks () and b = Store.create ~keyspace:ks () in
  let id = Store.intern a "x" in
  checki "shared keyspace, shared ids" id (Store.intern b "x");
  Store.set_id a id (Value.int 9);
  Alcotest.check value_t "get_id" (Value.int 9) (Store.get_id a id);
  Alcotest.check value_t "string view agrees" (Value.int 9) (Store.get a "x");
  checkb "mem_id" true (Store.mem_id a id);
  checkb "b untouched" false (Store.mem_id b id);
  Store.set_with_ts_id b id (Value.int 4) (gt 3 1);
  checkb "ts_id round trip" true (Gtime.equal (Store.get_ts_id b id) (gt 3 1));
  (match Store.apply_id_unit a id (Op.Incr 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "apply_id_unit");
  Alcotest.check value_t "apply_id_unit applied" (Value.int 10) (Store.get a "x");
  checkb "apply_id_unit error surfaces" true
    (Result.is_error (Store.apply_id_unit a id (Op.Div 3)))

(* A store created tiny grows its flat cell array transparently as the
   shared keyspace interns past it. *)
let test_store_flat_growth () =
  let ks = Keyspace.create ~hint:1 () in
  let s = Store.create ~size:1 ~keyspace:ks () in
  for i = 0 to 499 do
    Store.set s (Printf.sprintf "k%d" i) (Value.int i)
  done;
  for i = 0 to 499 do
    Alcotest.check value_t "value survives growth" (Value.int i)
      (Store.get s (Printf.sprintf "k%d" i))
  done;
  checki "keys sees all" 500 (List.length (Store.keys s));
  (* A second store on the same (now large) keyspace stays independent. *)
  let t = Store.create ~keyspace:ks () in
  checkb "fresh store empty" false (Store.mem t "k0");
  Alcotest.check value_t "fresh store reads zero" Value.zero (Store.get t "k42")

(* qcheck: the interned flat store is observationally a string->value
   map — byte-for-byte the same snapshots as a plain Hashtbl model, for
   any op sequence and any initial sizing. *)
let prop_store_matches_hashtbl_model =
  let keys = [| "a"; "b"; "c"; "d"; "e" |] in
  QCheck.Test.make
    ~name:"interned store == Hashtbl model (any ops, any hint)" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 64)
           (list_size (int_range 1 40) (pair (int_range 0 4) arith_op_gen))))
    (fun (hint, ops) ->
      let s = Store.create ~size:hint () in
      let model : (string, Value.t) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (ki, op) ->
          let key = keys.(ki) in
          let before =
            Option.value (Hashtbl.find_opt model key) ~default:Value.zero
          in
          match Op.apply_value op before with
          | Ok v ->
              (match Store.apply_unit s key op with
              | Ok () -> ()
              | Error _ -> QCheck.Test.fail_report "store errored, model ok");
              Hashtbl.replace model key v
          | Error _ -> (
              match Store.apply_unit s key op with
              | Ok () -> QCheck.Test.fail_report "store ok, model errored"
              | Error _ -> ()))
        ops;
      let model_snapshot =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let store_snapshot = Store.snapshot s in
      List.length model_snapshot = List.length store_snapshot
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Value.equal v1 v2)
           model_snapshot store_snapshot)

let test_store_missing_key_reads_zero () =
  let s = Store.create () in
  Alcotest.check value_t "zero" Value.zero (Store.get s "nope");
  checkb "not mem" false (Store.mem s "nope")

let test_store_apply_and_get () =
  let s = Store.create () in
  (match Store.apply s "x" (Op.Incr 5) with
  | Ok u -> Alcotest.check value_t "before" Value.zero u.Store.before
  | Error _ -> Alcotest.fail "apply");
  Alcotest.check value_t "after" (Value.int 5) (Store.get s "x");
  ignore (Store.apply s "x" (Op.Mult 3));
  Alcotest.check value_t "after mult" (Value.int 15) (Store.get s "x")

let test_store_rollback () =
  let s = Store.create () in
  ignore (Store.apply s "x" (Op.Write (Value.int 10)));
  let undo =
    match Store.apply s "x" (Op.Write (Value.int 99)) with
    | Ok u -> u
    | Error _ -> Alcotest.fail "apply"
  in
  Store.rollback s undo;
  Alcotest.check value_t "restored" (Value.int 10) (Store.get s "x")

let test_store_timed_write_latest_wins () =
  let s = Store.create () in
  let apply ts v =
    match Store.apply s "x" (Op.Timed_write { ts; value = Value.int v }) with
    | Ok u -> u.Store.applied
    | Error _ -> Alcotest.fail "apply"
  in
  checkb "first applies" true (apply (gt 5 0) 50);
  checkb "older ignored" false (apply (gt 3 0) 30);
  Alcotest.check value_t "value kept" (Value.int 50) (Store.get s "x");
  checkb "newer applies" true (apply (gt 7 1) 70);
  Alcotest.check value_t "value updated" (Value.int 70) (Store.get s "x");
  checkb "ts tracked" true (Gtime.equal (Store.get_ts s "x") (gt 7 1))

let test_store_timed_write_stale_rollback_noop () =
  let s = Store.create () in
  ignore (Store.apply s "x" (Op.Timed_write { ts = gt 5 0; value = Value.int 50 }));
  let undo =
    match Store.apply s "x" (Op.Timed_write { ts = gt 2 0; value = Value.int 20 }) with
    | Ok u -> u
    | Error _ -> Alcotest.fail "apply"
  in
  Store.rollback s undo;
  Alcotest.check value_t "stale undo is noop" (Value.int 50) (Store.get s "x")

let test_store_equal_and_snapshot () =
  let a = Store.create () and b = Store.create () in
  ignore (Store.apply a "x" (Op.Incr 3));
  ignore (Store.apply b "x" (Op.Incr 3));
  checkb "equal" true (Store.equal a b);
  (* A key explicitly at zero equals a missing key. *)
  ignore (Store.apply a "y" (Op.Incr 0));
  checkb "zero equals missing" true (Store.equal a b);
  ignore (Store.apply b "x" (Op.Incr 1));
  checkb "diverged" false (Store.equal a b);
  Alcotest.(check (list (pair string value_t))) "snapshot sorted"
    [ ("x", Value.int 3); ("y", Value.int 0) ]
    (Store.snapshot a)

let test_store_copy_independent () =
  let a = Store.create () in
  ignore (Store.apply a "x" (Op.Incr 1));
  let b = Store.copy a in
  ignore (Store.apply a "x" (Op.Incr 1));
  Alcotest.check value_t "copy frozen" (Value.int 1) (Store.get b "x");
  Alcotest.check value_t "original moved" (Value.int 2) (Store.get a "x")

(* Undo records make any op sequence reversible in reverse order. *)
let prop_store_rollback_reverses =
  QCheck.Test.make ~name:"store rollback reverses arbitrary op sequences"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) arith_op_gen))
    (fun ops ->
      let s = Store.create () in
      ignore (Store.apply s "k" (Op.Write (Value.int 7)));
      let initial = Store.get s "k" in
      let undos =
        List.filter_map
          (fun op ->
            match Store.apply s "k" op with Ok u -> Some u | Error _ -> None)
          ops
      in
      List.iter (Store.rollback s) (List.rev undos);
      Value.equal (Store.get s "k") initial)

(* --- Mvstore --- *)

let test_mv_append_and_read () =
  let m = Mvstore.create () in
  checkb "append" true (Mvstore.append m "x" ~ts:(gt 1 0) (Value.int 10));
  checkb "append 2" true (Mvstore.append m "x" ~ts:(gt 3 0) (Value.int 30));
  checkb "duplicate rejected" false (Mvstore.append m "x" ~ts:(gt 1 0) (Value.int 99));
  checki "two versions" 2 (List.length (Mvstore.versions m "x"));
  (match Mvstore.read_latest m "x" with
  | Some v -> Alcotest.check value_t "latest" (Value.int 30) v.Mvstore.value
  | None -> Alcotest.fail "latest");
  match Mvstore.read_at m "x" ~as_of:(gt 2 0) with
  | Some v -> Alcotest.check value_t "as-of" (Value.int 10) v.Mvstore.value
  | None -> Alcotest.fail "as-of"

let test_mv_out_of_order_appends () =
  let m = Mvstore.create () in
  ignore (Mvstore.append m "x" ~ts:(gt 5 0) (Value.int 50));
  ignore (Mvstore.append m "x" ~ts:(gt 1 0) (Value.int 10));
  ignore (Mvstore.append m "x" ~ts:(gt 3 0) (Value.int 30));
  let stamps = List.map (fun v -> v.Mvstore.ts.Gtime.counter) (Mvstore.versions m "x") in
  Alcotest.(check (list int)) "sorted oldest first" [ 1; 3; 5 ] stamps

let test_mv_vtnc_visibility () =
  let m = Mvstore.create () in
  ignore (Mvstore.append m "x" ~ts:(gt 1 0) (Value.int 10));
  ignore (Mvstore.append m "x" ~ts:(gt 5 0) (Value.int 50));
  checkb "nothing visible initially" true (Mvstore.read_visible m "x" = None);
  Mvstore.advance_vtnc m (gt 2 0);
  (match Mvstore.read_visible m "x" with
  | Some v -> Alcotest.check value_t "visible at vtnc" (Value.int 10) v.Mvstore.value
  | None -> Alcotest.fail "visible");
  checki "one above vtnc" 1 (Mvstore.versions_above_vtnc m "x");
  Mvstore.advance_vtnc m (gt 9 0);
  checki "none above vtnc" 0 (Mvstore.versions_above_vtnc m "x")

let test_mv_vtnc_monotone () =
  let m = Mvstore.create () in
  Mvstore.advance_vtnc m (gt 5 0);
  Mvstore.advance_vtnc m (gt 3 0);
  checkb "vtnc did not regress" true (Gtime.equal (Mvstore.vtnc m) (gt 5 0))

let test_mv_remove_version () =
  let m = Mvstore.create () in
  ignore (Mvstore.append m "x" ~ts:(gt 1 0) (Value.int 10));
  ignore (Mvstore.append m "x" ~ts:(gt 2 0) (Value.int 20));
  checkb "removed" true (Mvstore.remove_version m "x" ~ts:(gt 2 0));
  checkb "absent now" false (Mvstore.remove_version m "x" ~ts:(gt 2 0));
  match Mvstore.read_latest m "x" with
  | Some v -> Alcotest.check value_t "previous latest" (Value.int 10) v.Mvstore.value
  | None -> Alcotest.fail "latest"

let test_mv_equal () =
  let a = Mvstore.create () and b = Mvstore.create () in
  ignore (Mvstore.append a "x" ~ts:(gt 1 0) (Value.int 10));
  ignore (Mvstore.append b "x" ~ts:(gt 1 0) (Value.int 10));
  checkb "equal" true (Mvstore.equal a b);
  ignore (Mvstore.append b "x" ~ts:(gt 2 0) (Value.int 20));
  checkb "not equal" false (Mvstore.equal a b)

(* Append order never matters: any permutation yields the same store. *)
let prop_mv_appends_commute =
  QCheck.Test.make ~name:"mvstore appends commute (any arrival order)" ~count:200
    QCheck.(pair (list_of_size QCheck.Gen.(int_range 1 12) (pair small_nat small_nat)) small_int)
    (fun (stamps, seed) ->
      let versions =
        List.mapi (fun i (c, s) -> (gt (c + 1) (s mod 4), Value.int i)) stamps
      in
      let build order =
        let m = Mvstore.create () in
        List.iter (fun (ts, v) -> ignore (Mvstore.append m "k" ~ts v)) order;
        m
      in
      let a = build versions in
      let shuffled = Array.of_list versions in
      Esr_util.Prng.shuffle (Esr_util.Prng.create seed) shuffled;
      let b = build (Array.to_list shuffled) in
      (* Duplicate timestamps keep first-arrival values, so restrict the
         check to stamp-distinct inputs. *)
      let distinct =
        List.sort_uniq (fun (a, _) (b, _) -> Gtime.compare a b) versions
      in
      QCheck.assume (List.length distinct = List.length versions);
      Mvstore.equal a b)

(* --- Sharding: deterministic placement and routing --- *)

module Sharding = Esr_store.Sharding

(* Every shard is replicated at exactly [factor] sites, strictly
   ascending and in range, and the O(1) membership test agrees with the
   replica arrays — for both partial policies across a spread of
   geometries. *)
let test_sharding_placement_exact_factor () =
  List.iter
    (fun policy ->
      List.iter
        (fun (sites, shards, factor) ->
          let sh = Sharding.create ~policy ~shards ~factor ~sites () in
          let label =
            Printf.sprintf "%s s=%d sh=%d f=%d"
              (Sharding.policy_to_string policy)
              sites shards factor
          in
          for shard = 0 to shards - 1 do
            let reps = Sharding.replicas sh shard in
            checki (label ^ " exact factor") factor (Array.length reps);
            Array.iteri
              (fun i site ->
                checkb (label ^ " in range") true (site >= 0 && site < sites);
                if i > 0 then
                  checkb (label ^ " ascending") true (reps.(i - 1) < site))
              reps;
            for site = 0 to sites - 1 do
              checkb
                (Printf.sprintf "%s membership shard=%d site=%d" label shard site)
                (Array.exists (( = ) site) reps)
                (Sharding.replicates sh ~site ~shard)
            done
          done)
        [ (4, 4, 1); (5, 7, 2); (8, 8, 3); (16, 5, 3); (9, 9, 9) ])
    [ Sharding.Ring; Sharding.Hash ]

(* Placement is a pure function of the parameters: two independent maps
   agree replica-for-replica, so every site computes the same routing
   without coordination. *)
let test_sharding_deterministic () =
  List.iter
    (fun policy ->
      let mk () = Sharding.create ~policy ~shards:13 ~factor:3 ~sites:11 () in
      let a = mk () and b = mk () in
      for shard = 0 to 12 do
        Alcotest.(check (array int))
          (Printf.sprintf "shard %d" shard)
          (Sharding.replicas a shard) (Sharding.replicas b shard)
      done)
    [ Sharding.Ring; Sharding.Hash ]

let test_sharding_full_is_everywhere () =
  let full = Sharding.full ~sites:6 in
  checkb "All is full" true (Sharding.is_full full);
  (* factor = sites is full regardless of policy. *)
  let ring = Sharding.create ~policy:Sharding.Ring ~shards:9 ~factor:6 ~sites:6 () in
  checkb "ring factor=sites is full" true (Sharding.is_full ring);
  for shard = 0 to Sharding.shards ring - 1 do
    for site = 0 to 5 do
      checkb "everywhere" true (Sharding.replicates ring ~site ~shard)
    done
  done;
  let partial = Sharding.create ~policy:Sharding.Ring ~factor:2 ~sites:6 () in
  checkb "factor<sites not full" false (Sharding.is_full partial)

let test_sharding_route_site () =
  let sh = Sharding.create ~policy:Sharding.Ring ~shards:8 ~factor:2 ~sites:8 () in
  for id = 0 to 15 do
    let shard = Sharding.shard_of_id sh id in
    for site = 0 to 7 do
      let routed = Sharding.route_site sh ~id ~site in
      checkb "routed to a replica" true
        (Sharding.replicates sh ~site:routed ~shard);
      if Sharding.replicates sh ~site ~shard then
        checki "interested site keeps the query" site routed
    done
  done;
  let full = Sharding.full ~sites:8 in
  for site = 0 to 7 do
    checki "identity under full" site (Sharding.route_site full ~id:3 ~site)
  done

(* The destination cursor computes exactly the set union of the touched
   shards' replica sets, visits it in ascending order, and resets in
   O(1) to an empty set. *)
let test_sharding_dests_union () =
  let sh = Sharding.create ~policy:Sharding.Hash ~shards:16 ~factor:3 ~sites:12 () in
  let c = Sharding.Dests.cursor sh in
  let ids = [ 0; 5; 9; 5; 31 ] in
  Sharding.Dests.reset c;
  List.iter (Sharding.Dests.add_id c) ids;
  let expected =
    List.sort_uniq compare
      (List.concat_map
         (fun id ->
           Array.to_list (Sharding.replicas sh (Sharding.shard_of_id sh id)))
         ids)
  in
  let visited = ref [] in
  Sharding.Dests.iter c (fun s -> visited := s :: !visited);
  Alcotest.(check (list int)) "union, ascending" expected (List.rev !visited);
  checki "count" (List.length expected) (Sharding.Dests.count c);
  List.iter
    (fun s -> checkb "mem" (List.mem s expected) (Sharding.Dests.mem c s))
    (List.init 12 Fun.id);
  Sharding.Dests.reset c;
  checki "reset empties" 0 (Sharding.Dests.count c);
  checkb "reset clears mem" false (Sharding.Dests.mem c (List.hd expected));
  Sharding.Dests.add_site c 7;
  checkb "add_site forces membership" true (Sharding.Dests.mem c 7);
  checki "add_site count" 1 (Sharding.Dests.count c)

let prop_sharding_placement =
  QCheck.Test.make
    ~name:"placement: every shard gets exactly factor distinct ascending replicas"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 40) (int_range 1 64) (int_range 1 40) bool))
    (fun (sites, shards, factor, hash) ->
      let factor = 1 + (factor mod sites) in
      let policy = if hash then Sharding.Hash else Sharding.Ring in
      let sh = Sharding.create ~policy ~shards ~factor ~sites () in
      let ok = ref true in
      for shard = 0 to shards - 1 do
        let reps = Sharding.replicas sh shard in
        if Array.length reps <> factor then ok := false;
        Array.iteri
          (fun i s ->
            if s < 0 || s >= sites then ok := false;
            if i > 0 && reps.(i - 1) >= s then ok := false)
          reps
      done;
      !ok)

(* The shard-aware probes match their per-key definition: a site
   diverges when, for some key of a shard it replicates, it holds a
   value other than the shard's first replica's; the map converges when
   no site diverges. *)
let prop_sharding_probes =
  QCheck.Test.make
    ~name:"probes: converged and divergent_replicas match the per-key definition"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 12) (int_range 1 10) (int_range 1 12)
           (pair bool (list_size (int_range 0 6) (pair (int_range 0 11) (int_range 0 29))))))
    (fun (sites, shards, factor, (hash, flips)) ->
      let factor = 1 + (factor mod sites) in
      let policy = if hash then Sharding.Hash else Sharding.Ring in
      let sh = Sharding.create ~policy ~shards ~factor ~sites () in
      let n_keys = 30 in
      let ks = Keyspace.create () in
      for k = 0 to n_keys - 1 do
        ignore (Keyspace.intern ks (Printf.sprintf "k%d" k))
      done;
      let stores = Array.init sites (fun _ -> Store.create ~keyspace:ks ()) in
      Array.iter
        (fun st ->
          for id = 1 to n_keys - 1 do
            Store.set_id st id (Value.Int id)
          done)
        stores;
      List.iter
        (fun (site, id) ->
          if site < sites then Store.set_id stores.(site) id (Value.Int (-1 - id)))
        flips;
      let store s = stores.(s) in
      let diverged = Array.make sites false in
      for id = 0 to n_keys - 1 do
        let reps = Sharding.replicas sh (Sharding.shard_of_id sh id) in
        let v0 = Store.get_id stores.(reps.(0)) id in
        Array.iter
          (fun s ->
            if not (Value.equal v0 (Store.get_id stores.(s) id)) then
              diverged.(s) <- true)
          reps
      done;
      let expected = Array.fold_left (fun n d -> if d then n + 1 else n) 0 diverged in
      Sharding.divergent_replicas sh ~keyspace:ks ~store = expected
      && Sharding.converged sh ~keyspace:ks ~store = (expected = 0))

let () =
  Alcotest.run "esr_store"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value_basics ]);
      ( "keyspace",
        [
          Alcotest.test_case "round trip" `Quick test_keyspace_round_trip;
          Alcotest.test_case "growth" `Quick test_keyspace_growth;
        ] );
      ( "op",
        [
          Alcotest.test_case "classes" `Quick test_op_classes;
          Alcotest.test_case "commutes matrix" `Quick test_op_commutes_matrix;
          Alcotest.test_case "read independence" `Quick test_op_read_independent;
          Alcotest.test_case "inverse" `Quick test_op_inverse;
          Alcotest.test_case "apply" `Quick test_op_apply_value;
          Alcotest.test_case "apply errors" `Quick test_op_apply_errors;
          Alcotest.test_case "compensation identity (§4.1)" `Quick
            test_compensation_identity_4_1;
          QCheck_alcotest.to_alcotest prop_commute_is_semantic;
          QCheck_alcotest.to_alcotest prop_commutes_symmetric;
          QCheck_alcotest.to_alcotest prop_inverse_cancels;
        ] );
      ( "store",
        [
          Alcotest.test_case "missing key" `Quick test_store_missing_key_reads_zero;
          Alcotest.test_case "apply/get" `Quick test_store_apply_and_get;
          Alcotest.test_case "rollback" `Quick test_store_rollback;
          Alcotest.test_case "timed write latest wins" `Quick
            test_store_timed_write_latest_wins;
          Alcotest.test_case "stale undo noop" `Quick
            test_store_timed_write_stale_rollback_noop;
          Alcotest.test_case "equal/snapshot" `Quick test_store_equal_and_snapshot;
          Alcotest.test_case "copy independent" `Quick test_store_copy_independent;
          Alcotest.test_case "id API round trip" `Quick test_store_id_api_round_trip;
          Alcotest.test_case "flat growth" `Quick test_store_flat_growth;
          QCheck_alcotest.to_alcotest prop_store_rollback_reverses;
          QCheck_alcotest.to_alcotest prop_store_matches_hashtbl_model;
        ] );
      ( "mvstore",
        [
          Alcotest.test_case "append/read" `Quick test_mv_append_and_read;
          Alcotest.test_case "out-of-order appends" `Quick
            test_mv_out_of_order_appends;
          Alcotest.test_case "vtnc visibility" `Quick test_mv_vtnc_visibility;
          Alcotest.test_case "vtnc monotone" `Quick test_mv_vtnc_monotone;
          Alcotest.test_case "remove version" `Quick test_mv_remove_version;
          Alcotest.test_case "equality" `Quick test_mv_equal;
          QCheck_alcotest.to_alcotest prop_mv_appends_commute;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "placement exact factor" `Quick
            test_sharding_placement_exact_factor;
          Alcotest.test_case "placement deterministic" `Quick
            test_sharding_deterministic;
          Alcotest.test_case "full replicates everywhere" `Quick
            test_sharding_full_is_everywhere;
          Alcotest.test_case "route_site lands on a replica" `Quick
            test_sharding_route_site;
          Alcotest.test_case "dests cursor union" `Quick
            test_sharding_dests_union;
          QCheck_alcotest.to_alcotest prop_sharding_placement;
          QCheck_alcotest.to_alcotest prop_sharding_probes;
        ] );
    ]
