(* Tests for Esr_clock: Lamport clocks and global timestamps. *)

module Lamport = Esr_clock.Lamport
module Gtime = Esr_clock.Gtime

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

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_gtime_order_is_total ]

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
      ("properties", qcheck_tests);
    ]
