(* Tests for Esr_squeue: reliable, exactly-once-to-the-handler delivery on
   top of the lossy network. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Squeue = Esr_squeue.Squeue
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk ?(config = Net.default_config) ?(sites = 2) ?(mode = Squeue.Unordered)
    ?(retry = 50.0) seed =
  let e = Engine.create () in
  let net = Net.create ~config e ~sites ~prng:(Prng.create seed) in
  let received = Array.make sites [] in
  let q =
    Squeue.create ~mode ~retry_interval:retry net ~handler:(fun ~site ~src msg ->
        received.(site) <- (src, msg) :: received.(site))
  in
  (e, net, q, received)

let test_basic_delivery () =
  let e, _, q, received = mk 1 in
  Squeue.send q ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] received.(1);
  checki "no pending" 0 (Squeue.pending q)

let test_lossy_link_retries () =
  let config = { Net.default_config with drop_probability = 0.4 } in
  let e, _, q, received = mk ~config 7 in
  for i = 0 to 49 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "all 50 delivered" 50 (List.length received.(1));
  checki "no pending" 0 (Squeue.pending q);
  let c = Squeue.counters q in
  checkb "retransmissions happened" true (c.Squeue.retransmissions > 0)

let test_exactly_once_under_duplication () =
  let config = { Net.default_config with duplicate_probability = 0.5 } in
  let e, _, q, received = mk ~config 3 in
  for i = 0 to 29 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "exactly once each" 30 (List.length received.(1));
  let sorted = List.sort compare (List.map snd received.(1)) in
  Alcotest.(check (list int)) "each message once" (List.init 30 Fun.id) sorted;
  checkb "duplicates suppressed" true
    ((Squeue.counters q).Squeue.duplicates_suppressed > 0)

let test_fifo_ordering_under_chaos () =
  let config =
    {
      Net.latency = Dist.Uniform (1.0, 50.0);
      drop_probability = 0.2;
      duplicate_probability = 0.2;
    }
  in
  let e, _, q, received = mk ~config ~mode:Squeue.Fifo 11 in
  for i = 0 to 99 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order preserved" (List.init 100 Fun.id)
    (List.rev_map snd received.(1))

let test_unordered_may_reorder () =
  let config = { Net.default_config with latency = Dist.Uniform (1.0, 100.0) } in
  let e, _, q, received = mk ~config ~mode:Squeue.Unordered 5 in
  for i = 0 to 49 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "all delivered" 50 (List.length received.(1));
  let arrival_order = List.rev_map snd received.(1) in
  checkb "some reordering observed" true (arrival_order <> List.init 50 Fun.id)

let test_broadcast () =
  let e, _, q, received = mk ~sites:4 1 in
  Squeue.broadcast q ~src:2 "b";
  Engine.run e;
  checki "site0" 1 (List.length received.(0));
  checki "site1" 1 (List.length received.(1));
  checki "self excluded" 0 (List.length received.(2));
  checki "site3" 1 (List.length received.(3))

let test_crash_recovery_redelivers () =
  let e, net, q, received = mk ~retry:20.0 9 in
  Net.crash net 1;
  Squeue.send q ~src:0 ~dst:1 "persistent";
  (* While the destination is down, retries keep the message pending. *)
  Engine.run ~until:500.0 e;
  checki "not delivered while down" 0 (List.length received.(1));
  checkb "still pending" true (Squeue.pending q > 0);
  Net.recover net 1;
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered after recovery"
    [ (0, "persistent") ] received.(1);
  checki "drained" 0 (Squeue.pending q)

let test_partition_heals_and_delivers () =
  let e, net, q, received = mk ~sites:4 ~retry:20.0 13 in
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Squeue.send q ~src:0 ~dst:3 "across";
  Engine.run ~until:300.0 e;
  checki "blocked during partition" 0 (List.length received.(3));
  Net.heal net;
  Engine.run e;
  checki "delivered after heal" 1 (List.length received.(3));
  checki "drained" 0 (Squeue.pending q)

let test_bidirectional_channels_independent () =
  let e, _, q, received = mk 15 in
  Squeue.send q ~src:0 ~dst:1 "a";
  Squeue.send q ~src:1 ~dst:0 "b";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "0 got b" [ (1, "b") ] received.(0);
  Alcotest.(check (list (pair int string))) "1 got a" [ (0, "a") ] received.(1)

let test_counters_consistency () =
  let config = { Net.default_config with drop_probability = 0.3 } in
  let e, _, q, _ = mk ~config 21 in
  for i = 0 to 19 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  let c = Squeue.counters q in
  checki "enqueued" 20 c.Squeue.enqueued;
  checki "first deliveries" 20 c.Squeue.delivered_first;
  checki "acks" 20 c.Squeue.acks_received

(* Twenty messages into a 2,000 ms crash with a 10 ms retry interval.
   No ack comes back, so each of the 200 ticks sends one probe, not all
   twenty.  The recovery kick then delivers everything, each message
   once. *)
let test_outage_costs_one_probe_per_interval () =
  let e, net, q, received = mk ~retry:10.0 17 in
  Net.crash net 1;
  for i = 0 to 19 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run ~until:2_000.0 e;
  let retx = (Squeue.counters q).Squeue.retransmissions in
  let bound = (2_000 / 10) + 1 in
  checkb
    (Printf.sprintf "%d retransmissions before recovery <= %d" retx bound)
    true (retx <= bound);
  checki "nothing delivered while down" 0 (List.length received.(1));
  Net.recover net 1;
  Engine.run e;
  Alcotest.(check (list int)) "each message delivered once"
    (List.init 20 Fun.id)
    (List.sort compare (List.map snd received.(1)));
  checki "drained" 0 (Squeue.pending q)

(* Five messages cross a cut link, which comes back at t = 20 without a
   heal event (a new partition puts both sites in one group), so no kick
   fires.  The first tick, at t = 50, hears no ack and sends only seq 0;
   the probe's ack, at t = 70, reopens the channel, and seqs 1-4 go at
   once. *)
let test_probe_then_reopen () =
  let e, net, q, received = mk 19 in
  Net.partition net [ [ 0 ]; [ 1 ] ];
  for i = 0 to 4 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  ignore (Engine.schedule e ~delay:20.0 (fun () -> Net.partition net [ [ 0; 1 ] ]));
  let retx () = (Squeue.counters q).Squeue.retransmissions in
  Engine.run ~until:50.0 e;
  checki "the first tick sends one message" 1 (retx ());
  Engine.run ~until:69.0 e;
  Alcotest.(check (list int)) "the probe carried seq 0" [ 0 ]
    (List.map snd received.(1));
  checki "nothing more until its ack" 1 (retx ());
  Engine.run ~until:70.0 e;
  checki "its ack sends the other four" 5 (retx ());
  Engine.run e;
  Alcotest.(check (list int)) "each message delivered once"
    (List.init 5 Fun.id)
    (List.sort compare (List.map snd received.(1)));
  checki "drained" 0 (Squeue.pending q)

(* A link slower than the 50 ms retry interval: 80 ms each way, so no
   ack returns before t = 160.  Each tick before then hears none and
   carries only the oldest unacked seq; the first ack reopens the
   channel, which resends the rest of the window in seq order.  A second
   window, sent at t = 300, goes the same way.  The receiver suppresses
   every retransmitted copy as a duplicate, 80 ms after it was sent. *)
let test_retransmits_in_seq_order () =
  let config = { Net.default_config with latency = Dist.Constant 80.0 } in
  let e = Engine.create () in
  let net = Net.create ~config e ~sites:2 ~prng:(Prng.create 1) in
  let obs = Obs.create ~tracing:true () in
  let dups = ref [] in
  Trace.attach obs.Obs.trace (fun r ->
      match r.Trace.ev with
      | Trace.Squeue_dup { seq; _ } -> dups := (r.Trace.time, seq) :: !dups
      | _ -> ());
  let q = Squeue.create ~obs net ~handler:(fun ~site:_ ~src:_ () -> ()) in
  let n = 12 in
  let window () =
    for _ = 1 to n do
      Squeue.send q ~src:0 ~dst:1 ()
    done
  in
  window ();
  ignore (Engine.schedule e ~delay:300.0 window);
  Engine.run e;
  let dups = List.rev !dups in
  let rounds =
    List.map
      (fun time ->
        ( time,
          List.filter_map (fun (t, seq) -> if t = time then Some seq else None) dups
        ))
      (List.sort_uniq compare (List.map fst dups))
  in
  (* Probes 50, 100 and 150 ms after the window, the reopen at 160. *)
  let expected ~sent first =
    let probe = [ first ] and rest = List.init (n - 1) (fun i -> first + 1 + i) in
    [
      (sent +. 130.0, probe);
      (sent +. 180.0, probe);
      (sent +. 230.0, probe);
      (sent +. 240.0, rest);
    ]
  in
  Alcotest.(check (list (pair (float 0.0) (list int))))
    "probes carry the oldest unacked seq; each reopen resends in seq order"
    (expected ~sent:0.0 0 @ expected ~sent:300.0 n)
    rounds

(* Sites 0 and 2 each send into site 1 while site 1 crashes and recovers
   at random; message [i] travels on channel [i mod 2 * 2 -> 1] with
   per-channel seq [i / 2].  Both delivery modes run, and checkpoint cuts
   ([gc_site]) fire at random times.  At each cut, [dedup_depth] and the
   reclaimed count must match a reference built from the set of seqs
   delivered per channel: an [Unordered] channel retains every delivered
   seq at or above its last cut's watermark and a cut reclaims the
   watermark's advance; a [Fifo] channel retains nothing.  The 10%
   duplication makes copies arrive after their ack has already emptied
   the sender's journal entry, which must be suppressed, never looked
   up. *)
let prop_exactly_once_under_random_crashes =
  QCheck.Test.make
    ~name:"exactly-once delivery under random crash/recover schedules"
    ~count:40
    QCheck.(
      quad (int_range 1 100_000) (int_range 1 25)
        (list_of_size Gen.(int_range 1 6) (pair (int_range 0 800) (int_range 0 1)))
        (pair bool (list_of_size Gen.(int_range 0 10) (int_range 0 1200))))
    (fun (seed, n, outages, (fifo, cuts)) ->
      (* Variable latency lets a duplicate copy overtake, or trail, the
         original by more than the ack's round trip. *)
      let config =
        {
          Net.latency = Dist.Uniform (1.0, 30.0);
          drop_probability = 0.15;
          duplicate_probability = 0.1;
        }
      in
      let mode = if fifo then Squeue.Fifo else Squeue.Unordered in
      let e, net, q, received = mk ~config ~mode ~sites:3 ~retry:25.0 seed in
      (* Random crash windows on the destination site. *)
      List.iter
        (fun (start, len_factor) ->
          let start = float_of_int start in
          let duration = float_of_int ((len_factor + 1) * 100) in
          ignore (Engine.schedule e ~delay:start (fun () -> Net.crash net 1));
          ignore
            (Engine.schedule e ~delay:(start +. duration) (fun () ->
                 Net.recover net 1)))
        outages;
      let src_of i = if i mod 2 = 0 then 0 else 2 in
      let sent = [| 0; 0; 0 |] in
      for i = 0 to n - 1 do
        ignore
          (Engine.schedule e ~delay:(float_of_int (i * 10)) (fun () ->
               let src = src_of i in
               Squeue.send q ~src ~dst:1 i;
               sent.(src) <- sent.(src) + 1))
      done;
      (* Reference: delivered seqs per source channel, and each channel's
         watermark at the last cut. *)
      let delivered src =
        List.filter_map
          (fun (s, i) -> if s = src then Some (i / 2) else None)
          received.(1)
      in
      let floors = [| 0; 0; 0 |] in
      let mark seqs =
        let rec go m = if List.mem m seqs then go (m + 1) else m in
        go 0
      in
      let cuts_ok = ref true in
      List.iter
        (fun at ->
          ignore
            (Engine.schedule e ~delay:(float_of_int at) (fun () ->
                 let depth = ref 0 and reclaim = ref 0 in
                 List.iter
                   (fun src ->
                     let seqs = delivered src in
                     let m = mark seqs in
                     if not fifo then begin
                       depth :=
                         !depth
                         + List.length (List.filter (fun s -> s >= floors.(src)) seqs);
                       reclaim := !reclaim + (m - floors.(src));
                       floors.(src) <- m
                     end)
                   [ 0; 2 ];
                 let depth_ok = Squeue.dedup_depth q ~site:1 = !depth in
                 let reclaim_ok = Squeue.gc_site q ~site:1 = !reclaim in
                 if not (depth_ok && reclaim_ok) then cuts_ok := false)))
        cuts;
      (* Make sure the final recovery is scheduled after every outage. *)
      ignore (Engine.schedule e ~delay:5_000.0 (fun () -> Net.recover net 1));
      Engine.run e;
      let got = List.sort compare (List.map snd received.(1)) in
      let in_order src =
        let seqs = List.rev (delivered src) in
        (not fifo) || seqs = List.sort compare seqs
      in
      got = List.init n Fun.id
      && Squeue.pending q = 0
      && !cuts_ok
      (* Every send was one journal append at its source, and every
         journal entry was acked. *)
      && List.for_all
           (fun site ->
             Squeue.journaled q ~site = sent.(site)
             && Squeue.journal_depth q ~site = 0)
           [ 0; 1; 2 ]
      && in_order 0 && in_order 2)

let prop_lossy_fifo_always_delivers_in_order =
  QCheck.Test.make ~name:"fifo delivers everything in order under loss"
    ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 1 40))
    (fun (seed, n) ->
      let config = { Net.default_config with drop_probability = 0.35 } in
      let e, _, q, received = mk ~config ~mode:Squeue.Fifo seed in
      for i = 0 to n - 1 do
        Squeue.send q ~src:0 ~dst:1 i
      done;
      Engine.run e;
      List.rev_map snd received.(1) = List.init n Fun.id
      && Squeue.pending q = 0)

(* The message path allocates only the sender's journal entry and a few
   boxed floats per event: no event record, no closure, no boxed PRNG
   state, no per-seq dedup record on an in-order link.  Batches of one
   unit message per channel over a loss-free 4-site network, each
   drained before the next, keep the tables at their warm size; the
   handler only counts. *)
let test_round_trip_allocation mode () =
  let e = Engine.create () in
  let net = Net.create e ~sites:4 ~prng:(Prng.create 1) in
  let got = ref 0 in
  let q = Squeue.create ~mode net ~handler:(fun ~site:_ ~src:_ () -> incr got) in
  let batch () =
    for src = 0 to 3 do
      for dst = 0 to 3 do
        if src <> dst then Squeue.send q ~src ~dst ()
      done
    done;
    Engine.run e
  in
  for _ = 1 to 100 do
    batch ()
  done;
  let batches = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to batches do
    batch ()
  done;
  let per_msg = (Gc.minor_words () -. w0) /. float_of_int (batches * 12) in
  checki "all delivered" ((100 + batches) * 12) !got;
  checki "all acked" 0 (Squeue.pending q);
  checkb (Printf.sprintf "%.1f minor words per message <= 27" per_msg) true
    (per_msg <= 27.0)

(* A fabric's state follows its traffic: a fresh 200-site fabric adds one
   empty slot per ordered site pair to its engine and network (a record
   per pair would be about 3.2M words), and each channel a send makes
   adds one record and its journal table; the receiver's early-arrival
   table waits for the first out-of-order arrival, which an in-order
   link never has. *)
let test_fabric_state_follows_traffic () =
  let sites = 200 in
  let e = Engine.create () in
  let net = Net.create e ~sites ~prng:(Prng.create 5) in
  let words () = Obj.reachable_words (Obj.repr (e, net)) in
  let bare = words () in
  let got = ref 0 in
  let q = Squeue.create net ~handler:(fun ~site:_ ~src:_ () -> incr got) in
  let fresh = words () in
  checkb
    (Printf.sprintf "fresh fabric adds %d words < 45,000" (fresh - bare))
    true
    (fresh - bare < 45_000);
  (* Three sources, each sending once to every other site. *)
  for src = 0 to 2 do
    Squeue.broadcast q ~src ()
  done;
  Engine.run e;
  let k = 3 * (sites - 1) in
  checki "all delivered" k !got;
  checki "all acked" 0 (Squeue.pending q);
  let grown = words () - fresh in
  checkb
    (Printf.sprintf "%d channels add %d words < %d" k grown (55 * k))
    true
    (grown < 55 * k)

let () =
  Alcotest.run "esr_squeue"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "lossy link retries" `Quick test_lossy_link_retries;
          Alcotest.test_case "exactly once under duplication" `Quick
            test_exactly_once_under_duplication;
          Alcotest.test_case "fifo order under chaos" `Quick
            test_fifo_ordering_under_chaos;
          Alcotest.test_case "unordered may reorder" `Quick
            test_unordered_may_reorder;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "bidirectional channels" `Quick
            test_bidirectional_channels_independent;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash recovery redelivers" `Quick
            test_crash_recovery_redelivers;
          Alcotest.test_case "partition heals" `Quick
            test_partition_heals_and_delivers;
          Alcotest.test_case "retransmits in seq order" `Quick
            test_retransmits_in_seq_order;
          Alcotest.test_case "an outage costs one probe per interval" `Quick
            test_outage_costs_one_probe_per_interval;
          Alcotest.test_case "probe, then reopen" `Quick test_probe_then_reopen;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counters" `Quick test_counters_consistency;
          QCheck_alcotest.to_alcotest prop_lossy_fifo_always_delivers_in_order;
          QCheck_alcotest.to_alcotest prop_exactly_once_under_random_crashes;
          Alcotest.test_case "round trip allocation, unordered" `Quick
            (test_round_trip_allocation Squeue.Unordered);
          Alcotest.test_case "round trip allocation, fifo" `Quick
            (test_round_trip_allocation Squeue.Fifo);
          Alcotest.test_case "fabric state follows traffic" `Quick
            test_fabric_state_follows_traffic;
        ] );
    ]
