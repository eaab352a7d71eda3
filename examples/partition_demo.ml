(* Network partition demo: asynchronous vs synchronous replica control
   when the network splits (paper §1 and §5.3).

   Four sites split 2+2 for two virtual seconds.  The same workload is
   run against COMMU (asynchronous, commutative increments) and 2PC
   (synchronous, write-all): the asynchronous method keeps committing on
   both sides of the split and converges after the heal, while the
   synchronous one can only commit when the partition heals (or its
   timeout aborts the attempt).

   Run with:  dune exec examples/partition_demo.exe *)

module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Store = Esr_store.Store
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng

let run method_name =
  Printf.printf "=== %s ===\n" method_name;
  let config = { Intf.default_config with Intf.twopc_timeout = 20_000.0 } in
  let h = Harness.create ~config ~seed:3 ~sites:4 ~method_name () in
  let engine = Harness.engine h in
  let net = Harness.net h in
  let prng = Prng.create 17 in

  (* Partition [0,1] | [2,3] between t=1000 and t=3000. *)
  ignore
    (Engine.schedule_at engine ~time:1_000.0 (fun () ->
         Printf.printf "t=1000  --- network partitions: {0,1} | {2,3} ---\n";
         Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ]));
  ignore
    (Engine.schedule_at engine ~time:3_000.0 (fun () ->
         Printf.printf "t=3000  --- network heals ---\n";
         Net.heal net));

  (* One deposit every 100ms from a random site, before, during, and
     after the partition. *)
  let in_window = ref 0 and committed_in_window = ref 0 in
  for i = 0 to 39 do
    let at = float_of_int i *. 100.0 in
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           let origin = Prng.int prng 4 in
           let submit_time = Engine.now engine in
           if submit_time >= 1_000.0 && submit_time < 3_000.0 then incr in_window;
           Harness.submit_update h ~origin [ Intf.Add ("counter", 1) ] (function
             | Intf.Committed { committed_at } ->
                 if committed_at >= 1_000.0 && committed_at < 3_000.0 then
                   incr committed_in_window
             | Intf.Rejected _ -> ())))
  done;

  (* A query on each side of the split, mid-partition.  Under 2PC a
     query can block behind a prepared writer's locks until the heal. *)
  List.iter
    (fun site ->
      ignore
        (Engine.schedule_at engine ~time:2_000.0 (fun () ->
             Harness.submit_query h ~site ~keys:[ "counter" ]
               ~epsilon:Epsilon.Unlimited (fun o ->
                 Printf.printf
                   "        query at site %d submitted t=2000, served t=%.0f: counter=%s\n"
                   site o.Intf.served_at
                   (Value.to_string (List.assoc "counter" o.Intf.values))))))
    [ 0; 3 ];

  let settled = Harness.settle_result h = Harness.Drained in
  Printf.printf "updates committed during the partition window: %d / %d\n"
    !committed_in_window !in_window;
  Printf.printf "after heal+drain: settled=%b converged=%b, counter at every site = %s\n\n"
    settled (Harness.converged h)
    (Value.to_string (Store.get (Harness.store h ~site:0) "counter"))

let () =
  run "COMMU";
  run "2PC"
