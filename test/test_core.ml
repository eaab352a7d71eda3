(* Tests for Esr_core: histories, conflicts, serialization graphs, the
   ε-serial checker (including the paper's worked example log (1)), and
   epsilon counters. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Et = Esr_core.Et
module Hist = Esr_core.Hist
module Conflict = Esr_core.Conflict
module Sergraph = Esr_core.Sergraph
module Esr_check = Esr_core.Esr_check
module Epsilon = Esr_core.Epsilon

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* The paper's ε-serial example, §2.1 log (1). *)
let paper_log = "R1(a) W1(b) W2(b) R3(a) W2(a) R3(b)"

(* --- Hist --- *)

let test_parse_roundtrip () =
  let h = Hist.of_string paper_log in
  checki "six ops" 6 (Hist.length h);
  Alcotest.(check string) "roundtrip" paper_log (Hist.to_string h)

let test_parse_errors () =
  List.iter
    (fun s ->
      checkb (Printf.sprintf "reject %S" s) true
        (try
           ignore (Hist.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "X1(a)"; "R(a)"; "R1a"; "R1()"; "W1(a" ]

let test_et_kinds () =
  let h = Hist.of_string paper_log in
  Alcotest.(check (list (pair int string)))
    "kinds"
    [ (1, "update"); (2, "update"); (3, "query") ]
    (List.map (fun (id, k) -> (id, Et.kind_to_string k)) (Hist.ets h))

let test_keys_and_positions () =
  let h = Hist.of_string paper_log in
  Alcotest.(check (list string)) "ET3 keys" [ "a"; "b" ] (Hist.keys_of h 3);
  checki "ET3 first" 3 (Hist.first_pos h 3);
  checki "ET3 last" 5 (Hist.last_pos h 3);
  checki "ET2 first" 2 (Hist.first_pos h 2);
  checki "ET2 last" 4 (Hist.last_pos h 2)

let test_filter_ets () =
  let h = Hist.of_string paper_log in
  let updates_only = Hist.filter_ets h ~keep:(fun id -> id <> 3) in
  Alcotest.(check string) "query deleted" "R1(a) W1(b) W2(b) W2(a)"
    (Hist.to_string updates_only)

let test_append_order () =
  let h =
    Hist.of_actions
      [
        Et.action ~et:1 ~key:"x" Op.Read;
        Et.action ~et:1 ~key:"y" (Op.Write Value.zero);
      ]
  in
  Alcotest.(check string) "order kept" "R1(x) W1(y)" (Hist.to_string h)

(* --- Conflict --- *)

let test_conflict_classic () =
  let h = Hist.of_string "R1(a) W2(a)" in
  let edges = Conflict.edges h in
  checki "one edge" 1 (List.length edges);
  let e = List.hd edges in
  checki "from" 1 e.Conflict.from_et;
  checki "to" 2 e.Conflict.to_et

let test_conflict_same_et_ignored () =
  let h = Hist.of_string "R1(a) W1(a)" in
  checki "no self edges" 0 (List.length (Conflict.edges h))

let test_conflict_different_keys_ignored () =
  let h = Hist.of_string "W1(a) W2(b)" in
  checki "no cross-key edges" 0 (List.length (Conflict.edges h))

let test_conflict_reads_dont_conflict () =
  let h = Hist.of_string "R1(a) R2(a)" in
  checki "R/R free" 0 (List.length (Conflict.edges h))

let test_conflict_semantic_commute () =
  let h =
    Hist.of_actions
      [
        Et.action ~et:1 ~key:"x" (Op.Incr 1);
        Et.action ~et:2 ~key:"x" (Op.Incr 2);
      ]
  in
  checki "classic sees conflict" 1 (List.length (Conflict.edges ~mode:Conflict.Classic h));
  checki "semantic sees none" 0 (List.length (Conflict.edges ~mode:Conflict.Semantic h))

(* --- Sergraph --- *)

let test_sergraph_acyclic_serial () =
  let h = Hist.of_string "R1(a) W1(a) R2(a) W2(a)" in
  let g = Sergraph.of_history h in
  checkb "acyclic" true (Sergraph.is_acyclic g);
  Alcotest.(check (option (list int))) "topo" (Some [ 1; 2 ])
    (Sergraph.topological_order g)

let test_sergraph_cycle () =
  (* Classic non-SR interleaving: each reads before the other writes. *)
  let h = Hist.of_string "R1(a) R2(a) W2(a) W1(a)" in
  let g = Sergraph.of_history h in
  checkb "cyclic" false (Sergraph.is_acyclic g);
  (match Sergraph.find_cycle g with
  | Some cycle -> checkb "cycle nonempty" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected a cycle");
  Alcotest.(check (option (list int))) "no topo" None (Sergraph.topological_order g)

let test_sergraph_edges () =
  let h = Hist.of_string "W1(a) R2(a) W3(a)" in
  let g = Sergraph.of_history h in
  checkb "1->2" true (Sergraph.has_edge g 1 2);
  checkb "2->3" true (Sergraph.has_edge g 2 3);
  checkb "1->3" true (Sergraph.has_edge g 1 3);
  checkb "no 3->1" false (Sergraph.has_edge g 3 1)

(* --- Esr_check: the paper's worked example --- *)

let test_paper_log_not_sr () =
  let h = Hist.of_string paper_log in
  checkb "whole log is not SR" false (Esr_check.is_sr h)

let test_paper_log_is_epsilon_serial () =
  let h = Hist.of_string paper_log in
  checkb "ε-serial" true (Esr_check.is_epsilon_serial h);
  (* "the deletion of Q3 results in the log being an SRlog (actually a
     serial log) formed by U1 and U2" *)
  let updates = Esr_check.update_subhistory h in
  Alcotest.(check string) "update subhistory" "R1(a) W1(b) W2(b) W2(a)"
    (Hist.to_string updates);
  checkb "update subhistory SR" true (Esr_check.is_sr updates);
  Alcotest.(check (option (list int))) "serial witness U1;U2" (Some [ 1; 2 ])
    (Esr_check.serial_witness updates)

let test_paper_log_overlap () =
  let h = Hist.of_string paper_log in
  (* Q3 runs from position 3 to 5; U2 (positions 2..4) is still active at
     Q3's first operation and touches keys {a,b} that Q3 reads, so the
     overlap is {U2}.  U1 finished before Q3 started. *)
  Alcotest.(check (list int)) "overlap(Q3)" [ 2 ] (Esr_check.overlap h ~query:3);
  checki "overlap bound" 1 (Esr_check.overlap_bound h ~query:3);
  checki "max overlap" 1 (Esr_check.max_overlap h)

let test_overlap_of_update_rejected () =
  let h = Hist.of_string paper_log in
  checkb "raises on update ET" true
    (try
       ignore (Esr_check.overlap h ~query:1);
       false
     with Invalid_argument _ -> true)

let test_overlap_disjoint_keys_excluded () =
  (* The update overlaps in time but touches a different object. *)
  let h = Hist.of_string "W1(x) R2(y) W1(x) R2(y)" in
  Alcotest.(check (list int)) "no data overlap" [] (Esr_check.overlap h ~query:2)

let test_overlap_update_started_during_query () =
  let h = Hist.of_string "R2(y) W1(y) R2(y)" in
  Alcotest.(check (list int)) "late-starting update counted" [ 1 ]
    (Esr_check.overlap h ~query:2)

let test_empty_overlap_means_sr_query () =
  (* A query with empty overlap is SR (paper §2.1). *)
  let h = Hist.of_string "W1(a) R2(a) W3(b) R2(b)" in
  Alcotest.(check (list int)) "overlap" [ 3 ] (Esr_check.overlap h ~query:2);
  let h_serial = Hist.of_string "W1(a) R2(a) R2(b)" in
  Alcotest.(check (list int)) "empty overlap" [] (Esr_check.overlap h_serial ~query:2);
  checkb "and the log is SR" true (Esr_check.is_sr h_serial)

let test_update_only_log () =
  let h = Hist.of_string "W1(a) W2(a)" in
  checkb "ε-serial = SR for update-only" true (Esr_check.is_epsilon_serial h);
  checki "max overlap zero" 0 (Esr_check.max_overlap h)

let test_query_only_log () =
  let h = Hist.of_string "R1(a) R2(a)" in
  checkb "vacuously ε-serial" true (Esr_check.is_epsilon_serial h);
  checki "no overlap" 0 (Esr_check.max_overlap h)

let test_non_esr_log () =
  (* Two update ETs in a write-write cycle: not even ε-serial. *)
  let h = Hist.of_string "W1(a) W2(a) W2(b) W1(b)" in
  checkb "not SR" false (Esr_check.is_sr h);
  checkb "not ε-serial either" false (Esr_check.is_epsilon_serial h)

(* qcheck generators for random histories *)
let history_gen ~ets ~keys ~len =
  QCheck.Gen.(
    map
      (fun ops ->
        Hist.of_actions
          (List.map
             (fun (et, key, is_write) ->
               Et.action ~et:(et + 1)
                 ~key:(String.make 1 (Char.chr (Char.code 'a' + key)))
                 (if is_write then Op.Write Value.zero else Op.Read))
             ops))
      (list_size (int_range 1 len) (triple (int_range 0 (ets - 1)) (int_range 0 (keys - 1)) bool)))

let prop_sr_implies_epsilon_serial =
  QCheck.Test.make ~name:"SR implies ε-serial" ~count:400
    (QCheck.make (history_gen ~ets:4 ~keys:3 ~len:12))
    (fun h -> if Esr_check.is_sr h then Esr_check.is_epsilon_serial h else true)

let prop_epsilon_serial_iff_update_subhistory_sr =
  QCheck.Test.make ~name:"ε-serial iff update subhistory SR" ~count:400
    (QCheck.make (history_gen ~ets:4 ~keys:3 ~len:12))
    (fun h ->
      Esr_check.is_epsilon_serial h = Esr_check.is_sr (Esr_check.update_subhistory h))

let prop_serial_histories_are_sr =
  (* Build a genuinely serial history (ETs one after another). *)
  let gen =
    QCheck.Gen.(
      map
        (fun chunks ->
          let actions =
            List.concat
              (List.mapi
                 (fun et ops ->
                   List.map
                     (fun (key, is_write) ->
                       Et.action ~et:(et + 1)
                         ~key:(String.make 1 (Char.chr (Char.code 'a' + key)))
                         (if is_write then Op.Write Value.zero else Op.Read))
                     ops)
                 chunks)
          in
          Hist.of_actions actions)
        (list_size (int_range 1 5)
           (list_size (int_range 1 4) (pair (int_range 0 2) bool))))
  in
  QCheck.Test.make ~name:"serial histories are SR" ~count:300 (QCheck.make gen)
    (fun h -> Esr_check.is_sr h)

let prop_overlap_within_bounds =
  QCheck.Test.make ~name:"overlap only contains update ETs of the history"
    ~count:300
    (QCheck.make (history_gen ~ets:4 ~keys:3 ~len:12))
    (fun h ->
      let kinds = Hist.ets h in
      List.for_all
        (fun (id, kind) ->
          match kind with
          | Et.Query ->
              List.for_all
                (fun u -> List.assoc_opt u kinds = Some Et.Update)
                (Esr_check.overlap h ~query:id)
          | Et.Update -> true)
        kinds)

(* --- Logmerge (partition reconciliation, §5.3 comparator) --- *)

module Logmerge = Esr_core.Logmerge
module Store = Esr_store.Store
module Gtime = Esr_clock.Gtime

let value_t = Alcotest.testable Value.pp Value.equal

let hist_of actions = Hist.of_actions actions
let act ~et ~key op = Et.action ~et ~key op

let test_merge_commutative_union () =
  let a = hist_of [ act ~et:1 ~key:"x" (Op.Incr 5); act ~et:2 ~key:"y" (Op.Incr 1) ] in
  let b = hist_of [ act ~et:3 ~key:"x" (Op.Incr 3) ] in
  let m = Logmerge.merge ~majority:a ~minority:b in
  Alcotest.(check (list int)) "nothing rolled back" [] m.Logmerge.rolled_back;
  let s = Logmerge.apply m.Logmerge.merged in
  Alcotest.check value_t "x summed" (Value.int 8) (Store.get s "x");
  Alcotest.check value_t "y kept" (Value.int 1) (Store.get s "y")

let test_merge_timestamped_overwrites () =
  let tw c v = Op.Timed_write { ts = Gtime.make ~counter:c ~site:0; value = Value.int v } in
  let a = hist_of [ act ~et:1 ~key:"x" (tw 5 50) ] in
  let b = hist_of [ act ~et:2 ~key:"x" (tw 9 90) ] in
  let m = Logmerge.merge ~majority:a ~minority:b in
  Alcotest.(check (list int)) "overwrites merge cleanly" [] m.Logmerge.rolled_back;
  Alcotest.check value_t "latest stamp wins" (Value.int 90)
    (Store.get (Logmerge.apply m.Logmerge.merged) "x");
  (* Merging the other way yields the same state: order irrelevant. *)
  let m' = Logmerge.merge ~majority:b ~minority:a in
  checkb "direction irrelevant" true
    (Logmerge.equivalent_states m.Logmerge.merged m'.Logmerge.merged)

let test_merge_conflict_rolls_back_minority () =
  let a = hist_of [ act ~et:1 ~key:"x" (Op.Write (Value.int 10)) ] in
  let b = hist_of [ act ~et:2 ~key:"x" (Op.Write (Value.int 20)) ] in
  let m = Logmerge.merge ~majority:a ~minority:b in
  Alcotest.(check (list int)) "minority ET sacrificed" [ 2 ] m.Logmerge.rolled_back;
  Alcotest.(check (list string)) "conflict key" [ "x" ] m.Logmerge.conflict_keys;
  Alcotest.check value_t "majority wins" (Value.int 10)
    (Store.get (Logmerge.apply m.Logmerge.merged) "x")

let test_merge_et_is_all_or_nothing () =
  (* One conflicting op dooms the whole minority ET, including its clean
     operations on other keys. *)
  let a = hist_of [ act ~et:1 ~key:"x" (Op.Write (Value.int 1)) ] in
  let b =
    hist_of
      [ act ~et:2 ~key:"x" (Op.Write (Value.int 2)); act ~et:2 ~key:"y" (Op.Incr 7) ]
  in
  let m = Logmerge.merge ~majority:a ~minority:b in
  Alcotest.(check (list int)) "rolled back" [ 2 ] m.Logmerge.rolled_back;
  Alcotest.check value_t "clean op of doomed ET also gone" Value.zero
    (Store.get (Logmerge.apply m.Logmerge.merged) "y")

let test_merge_ignores_queries () =
  let a = hist_of [ act ~et:1 ~key:"x" (Op.Incr 1); act ~et:9 ~key:"x" Op.Read ] in
  let b = hist_of [ act ~et:2 ~key:"x" (Op.Incr 1) ] in
  let m = Logmerge.merge ~majority:a ~minority:b in
  Alcotest.(check (list int)) "queries never conflict" [] m.Logmerge.rolled_back

let prop_merge_commutative_is_symmetric =
  QCheck.Test.make ~name:"all-commutative merges are direction-independent"
    ~count:200
    QCheck.(pair (list (pair (int_range 0 3) (int_range (-9) 9))) (list (pair (int_range 0 3) (int_range (-9) 9))))
    (fun (xs, ys) ->
      let build offset ops =
        hist_of
          (List.mapi
             (fun i (key, d) ->
               act ~et:(offset + i) ~key:(Printf.sprintf "k%d" key) (Op.Incr d))
             ops)
      in
      let a = build 1 xs and b = build 1000 ys in
      let m1 = Logmerge.merge ~majority:a ~minority:b in
      let m2 = Logmerge.merge ~majority:b ~minority:a in
      m1.Logmerge.rolled_back = [] && m2.Logmerge.rolled_back = []
      && Logmerge.equivalent_states m1.Logmerge.merged m2.Logmerge.merged)

let prop_merge_survivors_never_conflict =
  (* After a merge, no surviving minority op conflicts (semantically) with
     any majority op on the same key. *)
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun d -> Op.Incr d) (int_range 1 9);
          map (fun v -> Op.Write (Value.int v)) (int_range 0 99);
          map (fun k -> Op.Mult k) (int_range 2 4);
        ])
  in
  let log_gen offset =
    QCheck.Gen.(
      map
        (fun ops ->
          hist_of
            (List.mapi
               (fun i (key, op) ->
                 act ~et:(offset + i) ~key:(Printf.sprintf "k%d" key) op)
               ops))
        (list_size (int_range 0 10) (pair (int_range 0 2) op_gen)))
  in
  QCheck.Test.make ~name:"merge survivors never conflict with majority"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (log_gen 1) (log_gen 1000)))
    (fun (a, b) ->
      let m = Logmerge.merge ~majority:a ~minority:b in
      let maj_ids = List.map fst (Hist.ets a) in
      List.for_all
        (fun (x : Et.action) ->
          List.mem x.Et.et maj_ids
          || List.for_all
               (fun (y : Et.action) ->
                 (not (List.mem y.Et.et maj_ids))
                 || (not (String.equal x.Et.key y.Et.key))
                 || Op.commutes x.Et.op y.Et.op)
               (Hist.actions m.Logmerge.merged))
        (Hist.actions m.Logmerge.merged))

(* --- Epsilon --- *)

let test_epsilon_limit () =
  let c = Epsilon.create (Epsilon.Limit 3) in
  checkb "charge 2" true (Epsilon.try_charge c 2);
  checkb "charge 1" true (Epsilon.try_charge c 1);
  checkb "exhausted" true (Epsilon.exhausted c);
  checkb "charge refused" false (Epsilon.try_charge c 1);
  checki "value stable" 3 (Epsilon.value c);
  Alcotest.(check (option int)) "remaining" (Some 0) (Epsilon.remaining c)

let test_epsilon_refused_charge_leaves_value () =
  let c = Epsilon.create (Epsilon.Limit 2) in
  checkb "charge 1" true (Epsilon.try_charge c 1);
  checkb "charge 5 refused" false (Epsilon.try_charge c 5);
  checki "value unchanged" 1 (Epsilon.value c);
  Alcotest.(check (option int)) "remaining 1" (Some 1) (Epsilon.remaining c)

let test_epsilon_unlimited () =
  let c = Epsilon.create Epsilon.Unlimited in
  for _ = 1 to 100 do
    checkb "always allowed" true (Epsilon.try_charge c 10)
  done;
  checkb "never exhausted" false (Epsilon.exhausted c);
  checki "value" 1000 (Epsilon.value c);
  Alcotest.(check (option int)) "no remaining bound" None (Epsilon.remaining c)

let test_epsilon_zero_is_sr () =
  let c = Epsilon.create (Epsilon.Limit 0) in
  checkb "exhausted from the start" true (Epsilon.exhausted c);
  checkb "no charge possible" false (Epsilon.try_charge c 1)

let test_epsilon_forced () =
  let c = Epsilon.create (Epsilon.Limit 1) in
  Epsilon.charge_forced c 5;
  checki "forced past the limit" 5 (Epsilon.value c);
  checkb "exhausted" true (Epsilon.exhausted c)

let test_epsilon_invalid_charge () =
  let c = Epsilon.create Epsilon.Unlimited in
  checkb "zero charge raises" true
    (try
       ignore (Epsilon.try_charge c 0);
       false
     with Invalid_argument _ -> true)

let test_epsilon_spec_of_int () =
  checkb "negative is unlimited" true (Epsilon.spec_of_int (-1) = Epsilon.Unlimited);
  checkb "nonneg is limit" true (Epsilon.spec_of_int 4 = Epsilon.Limit 4)

let prop_epsilon_never_exceeds_limit =
  QCheck.Test.make ~name:"counter never exceeds its limit" ~count:300
    QCheck.(pair (int_range 0 20) (list (int_range 1 5)))
    (fun (limit, charges) ->
      let c = Epsilon.create (Epsilon.Limit limit) in
      List.iter (fun n -> ignore (Epsilon.try_charge c n)) charges;
      Epsilon.value c <= limit)

let () =
  Alcotest.run "esr_core"
    [
      ( "hist",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "ET kinds" `Quick test_et_kinds;
          Alcotest.test_case "keys and positions" `Quick test_keys_and_positions;
          Alcotest.test_case "filter ETs" `Quick test_filter_ets;
          Alcotest.test_case "append order" `Quick test_append_order;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "classic R/W" `Quick test_conflict_classic;
          Alcotest.test_case "same ET ignored" `Quick test_conflict_same_et_ignored;
          Alcotest.test_case "different keys ignored" `Quick
            test_conflict_different_keys_ignored;
          Alcotest.test_case "reads free" `Quick test_conflict_reads_dont_conflict;
          Alcotest.test_case "semantic commute" `Quick test_conflict_semantic_commute;
        ] );
      ( "sergraph",
        [
          Alcotest.test_case "acyclic serial" `Quick test_sergraph_acyclic_serial;
          Alcotest.test_case "cycle" `Quick test_sergraph_cycle;
          Alcotest.test_case "edges" `Quick test_sergraph_edges;
        ] );
      ( "paper log (1)",
        [
          Alcotest.test_case "not SR" `Quick test_paper_log_not_sr;
          Alcotest.test_case "ε-serial" `Quick test_paper_log_is_epsilon_serial;
          Alcotest.test_case "overlap" `Quick test_paper_log_overlap;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "update rejected" `Quick test_overlap_of_update_rejected;
          Alcotest.test_case "disjoint keys excluded" `Quick
            test_overlap_disjoint_keys_excluded;
          Alcotest.test_case "late-starting update" `Quick
            test_overlap_update_started_during_query;
          Alcotest.test_case "empty overlap is SR" `Quick
            test_empty_overlap_means_sr_query;
          Alcotest.test_case "update-only log" `Quick test_update_only_log;
          Alcotest.test_case "query-only log" `Quick test_query_only_log;
          Alcotest.test_case "non-ESR log" `Quick test_non_esr_log;
        ] );
      ( "logmerge",
        [
          Alcotest.test_case "commutative union" `Quick test_merge_commutative_union;
          Alcotest.test_case "timestamped overwrites" `Quick
            test_merge_timestamped_overwrites;
          Alcotest.test_case "conflict rolls back minority" `Quick
            test_merge_conflict_rolls_back_minority;
          Alcotest.test_case "ET all-or-nothing" `Quick test_merge_et_is_all_or_nothing;
          Alcotest.test_case "queries ignored" `Quick test_merge_ignores_queries;
          QCheck_alcotest.to_alcotest prop_merge_commutative_is_symmetric;
          QCheck_alcotest.to_alcotest prop_merge_survivors_never_conflict;
        ] );
      ( "epsilon",
        [
          Alcotest.test_case "limit" `Quick test_epsilon_limit;
          Alcotest.test_case "refused charge" `Quick
            test_epsilon_refused_charge_leaves_value;
          Alcotest.test_case "unlimited" `Quick test_epsilon_unlimited;
          Alcotest.test_case "zero = SR" `Quick test_epsilon_zero_is_sr;
          Alcotest.test_case "forced charge" `Quick test_epsilon_forced;
          Alcotest.test_case "invalid charge" `Quick test_epsilon_invalid_charge;
          Alcotest.test_case "spec_of_int" `Quick test_epsilon_spec_of_int;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sr_implies_epsilon_serial;
            prop_epsilon_serial_iff_update_subhistory_sr;
            prop_serial_histories_are_sr;
            prop_overlap_within_bounds;
            prop_epsilon_never_exceeds_limit;
          ] );
    ]
