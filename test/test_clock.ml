(* Tests for Esr_clock: Lamport clocks, global timestamps, vector clocks,
   and the central sequencer. *)

module Lamport = Esr_clock.Lamport
module Gtime = Esr_clock.Gtime
module Vclock = Esr_clock.Vclock

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- Lamport --- *)

let test_lamport_tick () =
  let c = Lamport.create () in
  checki "initial" 0 (Lamport.peek c);
  checki "first tick" 1 (Lamport.tick c);
  checki "second tick" 2 (Lamport.tick c);
  checki "peek stable" 2 (Lamport.peek c)

let test_lamport_witness () =
  let c = Lamport.create () in
  ignore (Lamport.tick c);
  checki "witness ahead" 11 (Lamport.witness c 10);
  checki "witness behind" 12 (Lamport.witness c 3);
  checki "peek" 12 (Lamport.peek c)

let test_lamport_happened_before () =
  (* Message exchange: a's send stamp < b's receive stamp. *)
  let a = Lamport.create () and b = Lamport.create () in
  let send_stamp = Lamport.tick a in
  let recv_stamp = Lamport.witness b send_stamp in
  checkb "causality" true (send_stamp < recv_stamp)

(* --- Gtime --- *)

let test_gtime_total_order () =
  let a = Gtime.make ~counter:1 ~site:0 in
  let b = Gtime.make ~counter:1 ~site:1 in
  let c = Gtime.make ~counter:2 ~site:0 in
  checkb "tie broken by site" true (Gtime.compare a b < 0);
  checkb "counter dominates" true (Gtime.compare b c < 0);
  checkb "zero below all" true (Gtime.compare Gtime.zero a < 0);
  checkb "equal" true (Gtime.equal a (Gtime.make ~counter:1 ~site:0))

let test_gtime_next_monotone () =
  let clock = Lamport.create () in
  let prev = ref Gtime.zero in
  for _ = 1 to 50 do
    let t = Gtime.next clock ~site:3 in
    checkb "strictly increasing" true (Gtime.compare t !prev > 0);
    prev := t
  done

let test_gtime_witness_pushes_clock () =
  let clock = Lamport.create () in
  Gtime.witness clock (Gtime.make ~counter:41 ~site:9);
  let t = Gtime.next clock ~site:0 in
  checkb "next exceeds witnessed" true (t.Gtime.counter > 41)

let prop_gtime_order_is_total =
  QCheck.Test.make ~name:"gtime compare is a total order" ~count:500
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((c1, s1), (c2, s2), (c3, s3)) ->
      let a = Gtime.make ~counter:c1 ~site:s1 in
      let b = Gtime.make ~counter:c2 ~site:s2 in
      let c = Gtime.make ~counter:c3 ~site:s3 in
      let antisym = not (Gtime.compare a b < 0 && Gtime.compare b a < 0) in
      let trans =
        if Gtime.compare a b <= 0 && Gtime.compare b c <= 0 then
          Gtime.compare a c <= 0
        else true
      in
      antisym && trans)

(* --- Vclock --- *)

let test_vclock_basic () =
  let v = Vclock.create ~sites:3 in
  checki "initial" 0 (Vclock.get v ~site:0);
  let v1 = Vclock.tick v ~site:1 in
  checki "ticked" 1 (Vclock.get v1 ~site:1);
  checki "others untouched" 0 (Vclock.get v1 ~site:0);
  checki "original immutable" 0 (Vclock.get v ~site:1)

let test_vclock_relations () =
  let base = Vclock.create ~sites:2 in
  let a = Vclock.tick base ~site:0 in
  let b = Vclock.tick base ~site:1 in
  let ab = Vclock.merge a b in
  checkb "a before ab" true (Vclock.relate a ab = Vclock.Before);
  checkb "ab after b" true (Vclock.relate ab b = Vclock.After);
  checkb "a concurrent b" true (Vclock.relate a b = Vclock.Concurrent);
  checkb "a equal a" true (Vclock.relate a a = Vclock.Equal)

let test_vclock_merge_is_lub () =
  let base = Vclock.create ~sites:3 in
  let a = Vclock.tick (Vclock.tick base ~site:0) ~site:0 in
  let b = Vclock.tick base ~site:2 in
  let m = Vclock.merge a b in
  checkb "a <= m" true (Vclock.leq a m);
  checkb "b <= m" true (Vclock.leq b m);
  checki "component max" 2 (Vclock.get m ~site:0);
  checki "component max" 1 (Vclock.get m ~site:2)

let test_vclock_size_mismatch () =
  let a = Vclock.create ~sites:2 and b = Vclock.create ~sites:3 in
  checkb "raises" true
    (try
       ignore (Vclock.merge a b);
       false
     with Invalid_argument _ -> true)

let vclock_gen sites =
  QCheck.Gen.(
    map
      (fun ticks ->
        List.fold_left
          (fun v site -> Vclock.tick v ~site)
          (Vclock.create ~sites) ticks)
      (list_size (int_range 0 12) (int_range 0 (sites - 1))))

let prop_vclock_leq_partial_order =
  let gen = QCheck.make (QCheck.Gen.pair (vclock_gen 4) (vclock_gen 4)) in
  QCheck.Test.make ~name:"vclock leq: reflexive + antisymmetric" ~count:300 gen
    (fun (a, b) ->
      Vclock.leq a a
      && if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)

let prop_vclock_merge_commutes =
  let gen = QCheck.make (QCheck.Gen.pair (vclock_gen 4) (vclock_gen 4)) in
  QCheck.Test.make ~name:"vclock merge commutes" ~count:300 gen (fun (a, b) ->
      Vclock.equal (Vclock.merge a b) (Vclock.merge b a))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_gtime_order_is_total; prop_vclock_leq_partial_order; prop_vclock_merge_commutes ]

let () =
  Alcotest.run "esr_clock"
    [
      ( "lamport",
        [
          Alcotest.test_case "tick" `Quick test_lamport_tick;
          Alcotest.test_case "witness" `Quick test_lamport_witness;
          Alcotest.test_case "happened-before" `Quick test_lamport_happened_before;
        ] );
      ( "gtime",
        [
          Alcotest.test_case "total order" `Quick test_gtime_total_order;
          Alcotest.test_case "next monotone" `Quick test_gtime_next_monotone;
          Alcotest.test_case "witness pushes clock" `Quick
            test_gtime_witness_pushes_clock;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "basic" `Quick test_vclock_basic;
          Alcotest.test_case "relations" `Quick test_vclock_relations;
          Alcotest.test_case "merge is lub" `Quick test_vclock_merge_is_lub;
          Alcotest.test_case "size mismatch" `Quick test_vclock_size_mismatch;
        ] );
      ("properties", qcheck_tests);
    ]
