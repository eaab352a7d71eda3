(* Tests for Esr_sim: the event heap, the engine, and the network model. *)

module Heap = Esr_sim.Heap
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Heap --- *)

(* Remove and return the minimum entry, [None] when the heap is empty.
   The tests carry their checked values in the key column. *)
let pop h =
  if Heap.is_empty h then None
  else begin
    let entry = (Heap.min_time h, Heap.min_seq h, Heap.min_key h) in
    Heap.drop_min h;
    Some entry
  end

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:0 ~key:30;
  Heap.push h ~time:1.0 ~seq:1 ~key:10;
  Heap.push h ~time:2.0 ~seq:2 ~key:20;
  let next () =
    match pop h with Some (_, _, x) -> x | None -> Alcotest.fail "empty"
  in
  checki "a first" 10 (next ());
  checki "b second" 20 (next ());
  checki "c third" 30 (next ());
  checkb "drained" true (pop h = None)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5.0 ~seq:i ~key:(100 + i)
  done;
  for i = 0 to 9 do
    match pop h with
    | Some (_, _, x) -> checki "FIFO among ties" (100 + i) x
    | None -> Alcotest.fail "empty"
  done

let test_heap_peek () =
  let h = Heap.create () in
  checkb "peek empty" true (Heap.is_empty h);
  Heap.push h ~time:1.0 ~seq:0 ~key:7;
  checkf "time" 1.0 (Heap.min_time h);
  checki "seq column" 0 (Heap.min_seq h);
  checki "key column" 7 (Heap.min_key h);
  checki "peek does not remove" 1 (Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:300
    QCheck.(list (pair (float_range 0. 1000.) small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, x) -> Heap.push h ~time:t ~seq:i ~key:x) entries;
      let rec drain prev =
        match pop h with
        | None -> true
        | Some (t, _, _) -> t >= prev && drain t
      in
      drain neg_infinity)

(* Stress property: interleaved pushes and pops against a sorted-list
   reference model must agree element for element — i.e. the heap drains
   strictly in (time, seq) lexicographic order even mid-stream. *)
let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap push/pop interleaving matches (time,seq) model"
    ~count:300
    QCheck.(list (pair (option (int_range 0 50)) unit))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* sorted ascending by (time, seq) *) in
      let seq = ref 0 in
      let insert entry =
        let rec go = function
          | [] -> [ entry ]
          | x :: rest -> if entry < x then entry :: x :: rest else x :: go rest
        in
        model := go !model
      in
      List.for_all
        (fun (op, ()) ->
          match op with
          | Some time_int ->
              let time = float_of_int time_int in
              incr seq;
              Heap.push h ~time ~seq:!seq ~key:(- !seq);
              insert (time, !seq);
              true
          | None -> (
              match (pop h, !model) with
              | None, [] -> true
              | Some (t, s, k), (mt, ms) :: rest ->
                  model := rest;
                  t = mt && s = ms && k = - ms
              | Some _, [] | None, _ :: _ -> false))
        ops
      && Heap.size h = List.length !model)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let trace = ref [] in
  ignore (Engine.schedule e ~delay:30.0 (fun () -> trace := 3 :: !trace));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> trace := 1 :: !trace));
  ignore (Engine.schedule e ~delay:20.0 (fun () -> trace := 2 :: !trace));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !trace);
  checkf "clock at last event" 30.0 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         incr hits;
         ignore (Engine.schedule e ~delay:1.0 (fun () -> incr hits))));
  Engine.run e;
  checki "both ran" 2 !hits;
  checkf "clock" 2.0 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id = Engine.schedule e ~delay:5.0 (fun () -> incr hits) in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Engine.cancel e id));
  Engine.run e;
  checki "cancelled never ran" 0 !hits;
  checki "processed one" 1 (Engine.processed e)

let test_engine_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> incr hits));
  ignore (Engine.schedule e ~delay:20.0 (fun () -> incr hits));
  Engine.run ~until:15.0 e;
  checki "only first" 1 !hits;
  checkf "clock advanced to limit" 15.0 (Engine.now e);
  Engine.run e;
  checki "rest runs later" 2 !hits

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let trace = ref [] in
  for i = 0 to 5 do
    ignore (Engine.schedule e ~delay:7.0 (fun () -> trace := i :: !trace))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO ties" [ 0; 1; 2; 3; 4; 5 ] (List.rev !trace)

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* NaN compares false with everything, so an unguarded NaN time would
   sit anywhere in the heap and drag the clock backwards. *)
let test_engine_negative_delay () =
  let e = Engine.create () in
  let p = Engine.port e (fun _ _ -> ()) in
  List.iter
    (fun delay ->
      checkb (Printf.sprintf "schedule %g raises" delay) true
        (raises (fun () -> ignore (Engine.schedule e ~delay (fun () -> ()))));
      checkb (Printf.sprintf "post %g raises" delay) true
        (raises (fun () -> Engine.post e ~delay p 0 0)))
    [ -1.0; Float.nan ];
  checki "nothing scheduled" 0 (Engine.scheduled e)

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  List.iter
    (fun time ->
      checkb (Printf.sprintf "raises on time %g" time) true
        (raises (fun () -> ignore (Engine.schedule_at e ~time (fun () -> ())))))
    [ 1.0; Float.nan ]

let test_engine_pending () =
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  checki "two pending" 2 (Engine.pending e);
  Engine.cancel e a;
  checki "one pending" 1 (Engine.pending e);
  Engine.run e;
  checki "none pending" 0 (Engine.pending e)

(* Schedule one event of either kind at [time] (the engine is at 0):
   a closure, or a post to [port], whose handler receives the event's
   index.  Returns the event's id. *)
let schedule_either ?(b = 0) e port ~closure ~time i body =
  if closure then Engine.schedule_at e ~time body
  else begin
    let id = Engine.scheduled e in
    Engine.post e ~delay:time port i b;
    id
  end

(* Reference-model property: a random mix of closure and port events and
   cancellations must fire exactly the uncancelled events, in (time,
   insertion) order — ties across the two kinds included. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches sorted reference model" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_range 0 50) bool bool))
    (fun entries ->
      let e = Engine.create () in
      let fired = ref [] in
      let port = Engine.port e (fun i _ -> fired := i :: !fired) in
      let scheduled =
        List.mapi
          (fun i (delay_int, cancel, closure) ->
            let time = float_of_int delay_int in
            let id =
              schedule_either e port ~closure ~time i (fun () ->
                  fired := i :: !fired)
            in
            (i, time, id, cancel))
          entries
      in
      List.iter
        (fun (_, _, id, cancel) -> if cancel then Engine.cancel e id)
        scheduled;
      Engine.run e;
      let expected =
        scheduled
        |> List.filter (fun (_, _, _, cancel) -> not cancel)
        |> List.stable_sort (fun (_, d1, _, _) (_, d2, _, _) -> compare d1 d2)
        |> List.map (fun (i, _, _, _) -> i)
      in
      List.rev !fired = expected
      && Engine.cancelled e = List.length (List.filter (fun (_, c, _) -> c) entries))

(* Lazy-cancellation property: cancellations issued *mid-run* from event
   bodies leave tombstones in the heap that must be skipped at pop time.
   Targets fire at odd times and cancellers at even times, so a `Before
   canceller always runs first (and the target never fires) while an
   `After canceller exercises the cancel-after-fire no-op path.  Targets
   and cancellers are each a closure or a port event at random.  A
   canceller may then schedule a follow-up closure 0-4 ms later: a
   `Before one schedules it while the cancelled entry is still queued,
   and it fires before or after that entry surfaces; later follow-ups are
   scheduled after earlier cancelled entries surfaced.  Each follow-up
   must fire once, at its own time: a closure slot freed twice would hand
   two queued closures one body. *)
let prop_engine_lazy_cancellation =
  QCheck.Test.make ~name:"engine mid-run cancellation matches model" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (quad (int_range 0 100) (option bool) (pair bool bool)
           (option (int_range 0 4))))
    (fun entries ->
      let e = Engine.create () in
      let fired = ref [] and followed = ref [] in
      let follow_of = Array.of_list (List.map (fun (_, _, _, f) -> f) entries) in
      let follow i =
        Option.iter
          (fun f ->
            let due = Engine.now e +. float_of_int f in
            ignore
              (Engine.schedule_at e ~time:due (fun () ->
                   followed := (i, Engine.now e = due) :: !followed)))
          follow_of.(i)
      in
      let target = Engine.port e (fun i _ -> fired := i :: !fired) in
      let canceller =
        Engine.port e (fun id i ->
            Engine.cancel e id;
            follow i)
      in
      let targets =
        List.mapi
          (fun i (d, cancel, (closure, _), _) ->
            let time = float_of_int ((2 * d) + 1) in
            let id =
              schedule_either e target ~closure ~time i (fun () ->
                  fired := i :: !fired)
            in
            (i, time, id, cancel))
          entries
      in
      List.iter2
        (fun (i, time, id, cancel) (_, _, (_, closure), _) ->
          match cancel with
          | None -> ()
          | Some before ->
              let time = if before then time -. 1.0 else time +. 1.0 in
              ignore
                (schedule_either ~b:i e canceller ~closure ~time id (fun () ->
                     Engine.cancel e id;
                     follow i)))
        targets entries;
      Engine.run e;
      let expected =
        targets
        |> List.filter (fun (_, _, _, cancel) -> cancel <> Some true)
        |> List.stable_sort (fun (_, t1, _, _) (_, t2, _, _) -> compare t1 t2)
        |> List.map (fun (i, _, _, _) -> i)
      in
      let expected_follow =
        List.concat
          (List.mapi
             (fun i (_, cancel, _, f) ->
               if cancel <> None && f <> None then [ (i, true) ] else [])
             entries)
      in
      List.rev !fired = expected
      && List.sort compare !followed = expected_follow
      && Engine.pending e = 0)

(* A fired closure's body, and all it captures, leaves the engine: 100
   closures each capture a 1,000-word array, and once [run] has drained
   them the engine reaches a few hundred words.  A cancelled closure's
   body goes when its entry surfaces. *)
let test_engine_releases_fired () =
  let e = Engine.create () in
  let sum = ref 0 in
  for i = 1 to 100 do
    let captured = Array.make 1_000 i in
    ignore
      (Engine.schedule e ~delay:(float_of_int i) (fun () ->
           sum := !sum + captured.(0)))
  done;
  for i = 1 to 20 do
    let captured = Array.make 1_000 i in
    Engine.cancel e
      (Engine.schedule e ~delay:(float_of_int i) (fun () ->
           sum := !sum + captured.(0)))
  done;
  Engine.run e;
  checki "the uncancelled ran" 5050 !sum;
  let words = Obj.reachable_words (Obj.repr e) in
  Printf.printf "drained engine: %d words reachable\n" words;
  checkb "under 2,000 words" true (words < 2_000)

(* --- Net --- *)

let mk_net ?config ~sites seed =
  let e = Engine.create () in
  let net = Net.create ?config e ~sites ~prng:(Prng.create seed) in
  (e, net)

(* A port whose every arrival runs [f]. *)
let on_arrival net f = Net.port net (fun ~src:_ ~dst:_ _ -> f ())

let test_net_delivers_with_latency () =
  let e, net = mk_net ~sites:2 1 in
  let arrived = ref (-1.0) and got = ref (-1, -1, -1) in
  let p =
    Net.port net (fun ~src ~dst arg ->
        arrived := Engine.now e;
        got := (src, dst, arg))
  in
  Net.post net p ~src:0 ~dst:1 42;
  Engine.run e;
  checkf "10ms default latency" 10.0 !arrived;
  checkb "handler gets src, dst and arg" true (!got = (0, 1, 42))

let test_net_drop_everything () =
  let config = { Net.default_config with drop_probability = 1.0 } in
  let e, net = mk_net ~config ~sites:2 1 in
  let arrived = ref false in
  let p = on_arrival net (fun () -> arrived := true) in
  for _ = 1 to 20 do
    Net.post net p ~src:0 ~dst:1 0
  done;
  Engine.run e;
  checkb "all lost" false !arrived;
  checki "counted" 20 (Net.counters net).Net.lost

let test_net_duplicates () =
  let config = { Net.default_config with duplicate_probability = 1.0 } in
  let e, net = mk_net ~config ~sites:2 1 in
  let count = ref 0 in
  Net.post net (on_arrival net (fun () -> incr count)) ~src:0 ~dst:1 0;
  Engine.run e;
  checki "delivered twice" 2 !count

let test_net_partition_blocks () =
  let e, net = mk_net ~sites:4 1 in
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  checkb "same group" true (Net.reachable net 0 1);
  checkb "cross group" false (Net.reachable net 0 2);
  let crossed = ref false and local = ref false in
  let p =
    Net.port net (fun ~src:_ ~dst _ ->
        if dst = 2 then crossed := true else local := true)
  in
  Net.post net p ~src:0 ~dst:2 0;
  Net.post net p ~src:0 ~dst:1 0;
  Engine.run e;
  checkb "cross-partition blocked" false !crossed;
  checkb "intra-partition flows" true !local;
  let c = Net.counters net in
  checki "blocked counted as partition drop" 1 c.Net.blocked_partition;
  checki "aggregate blocked agrees" 1 c.Net.blocked;
  Net.heal net;
  checkb "healed" true (Net.reachable net 0 2)

let test_net_partition_leftover_group () =
  let _, net = mk_net ~sites:5 1 in
  Net.partition net [ [ 0; 1 ] ];
  checkb "leftovers together" true (Net.reachable net 2 3);
  checkb "leftovers cut off" false (Net.reachable net 0 2)

let test_net_partition_duplicate_site () =
  let _, net = mk_net ~sites:3 1 in
  checkb "raises" true
    (try
       Net.partition net [ [ 0; 1 ]; [ 1; 2 ] ];
       false
     with Invalid_argument _ -> true)

let test_net_crash_blocks_delivery () =
  let e, net = mk_net ~sites:2 1 in
  Net.crash net 1;
  let arrived = ref false in
  let p = on_arrival net (fun () -> arrived := true) in
  Net.post net p ~src:0 ~dst:1 0;
  Engine.run e;
  checkb "not delivered to crashed" false !arrived;
  Net.recover net 1;
  Net.post net p ~src:0 ~dst:1 0;
  Engine.run e;
  checkb "delivered after recovery" true !arrived

let test_net_crashed_sender () =
  (* A send from a crashed site is a silent drop — it must not raise, and
     it lands in the crashed_src counter, not in lost or partition. *)
  let e, net = mk_net ~sites:2 1 in
  Net.crash net 0;
  let arrived = ref false in
  let p = on_arrival net (fun () -> arrived := true) in
  let raised =
    try
      Net.post net p ~src:0 ~dst:1 0;
      false
    with _ -> true
  in
  checkb "send from crashed site does not raise" false raised;
  Engine.run e;
  checkb "crashed site cannot send" false !arrived;
  let c = Net.counters net in
  checki "counted as crashed_src" 1 c.Net.crashed_src;
  checki "not a partition drop" 0 c.Net.blocked_partition;
  checki "not random loss" 0 c.Net.lost;
  checki "aggregate blocked includes it" 1 c.Net.blocked

let test_net_crash_at_arrival_time () =
  (* Message in flight when the destination crashes: dropped on arrival. *)
  let e, net = mk_net ~sites:2 1 in
  let arrived = ref false in
  Net.post net (on_arrival net (fun () -> arrived := true)) ~src:0 ~dst:1 0;
  ignore (Engine.schedule e ~delay:5.0 (fun () -> Net.crash net 1));
  Engine.run e;
  checkb "dropped at arrival" false !arrived;
  checki "counted as crashed_dst" 1 (Net.counters net).Net.crashed_dst

let test_net_counters () =
  let e, net = mk_net ~sites:2 1 in
  let p = on_arrival net ignore in
  Net.post net p ~src:0 ~dst:1 0;
  Net.post net p ~src:1 ~dst:0 0;
  Engine.run e;
  let c = Net.counters net in
  checki "sent" 2 c.Net.sent;
  checki "delivered" 2 c.Net.delivered;
  checki "lost" 0 c.Net.lost;
  checki "no partition drops" 0 c.Net.blocked_partition;
  checki "no crashed-source drops" 0 c.Net.crashed_src;
  checki "no crashed-destination drops" 0 c.Net.crashed_dst;
  checki "no duplicates" 0 c.Net.duplicated

let test_net_latency_distribution () =
  let config = { Net.default_config with latency = Dist.Uniform (5.0, 15.0) } in
  let e, net = mk_net ~config ~sites:2 3 in
  let times = ref [] in
  let p = on_arrival net (fun () -> times := Engine.now e :: !times) in
  for _ = 1 to 100 do
    Net.post net p ~src:0 ~dst:1 0
  done;
  Engine.run e;
  checki "all arrived" 100 (List.length !times);
  List.iter (fun t -> checkb "in latency band" true (t >= 5.0 && t < 15.0)) !times

let () =
  Alcotest.run "esr_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "pending count" `Quick test_engine_pending;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          QCheck_alcotest.to_alcotest prop_engine_lazy_cancellation;
          Alcotest.test_case "fired closures are released" `Quick
            test_engine_releases_fired;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency" `Quick test_net_delivers_with_latency;
          Alcotest.test_case "drop" `Quick test_net_drop_everything;
          Alcotest.test_case "duplicates" `Quick test_net_duplicates;
          Alcotest.test_case "partition blocks" `Quick test_net_partition_blocks;
          Alcotest.test_case "partition leftover group" `Quick
            test_net_partition_leftover_group;
          Alcotest.test_case "partition duplicate site" `Quick
            test_net_partition_duplicate_site;
          Alcotest.test_case "crash blocks delivery" `Quick
            test_net_crash_blocks_delivery;
          Alcotest.test_case "crashed sender" `Quick test_net_crashed_sender;
          Alcotest.test_case "crash at arrival" `Quick test_net_crash_at_arrival_time;
          Alcotest.test_case "counters" `Quick test_net_counters;
          Alcotest.test_case "latency distribution" `Quick
            test_net_latency_distribution;
        ] );
    ]
