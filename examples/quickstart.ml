(* Quickstart: five minutes with epsilon-serializability.

   We build a 3-replica system running the COMMU replica-control method,
   apply a few commutative updates, and read with different inconsistency
   budgets (epsilon).  Everything runs on a deterministic simulated
   network, so the output is reproducible.

   Run with:  dune exec examples/quickstart.exe *)

module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Store = Esr_store.Store

let () =
  (* A replicated system = engine + network + method, wired by the
     harness.  Links carry 10ms of latency by default. *)
  let h = Harness.create ~seed:7 ~sites:3 ~method_name:"COMMU" () in

  (* Update ETs are expressed as intents; COMMU accepts commutative
     increments.  Updates commit locally and propagate asynchronously. *)
  Harness.submit_update h ~origin:0 [ Intf.Add ("balance", 100) ] (function
    | Intf.Committed { committed_at } ->
        Printf.printf "update 1 committed at t=%.1fms (locally, before propagation)\n"
          committed_at
    | Intf.Rejected reason -> Printf.printf "update 1 rejected: %s\n" reason);
  Harness.submit_update h ~origin:1 [ Intf.Add ("balance", -30) ] ignore;

  (* A query ET with an unlimited epsilon reads immediately — it may see
     none, one, or both updates, and is charged one inconsistency unit
     per in-flight update it can observe.  At site 1 the local withdrawal
     is still propagating, so the query is charged for reading through it. *)
  Harness.submit_query h ~site:1 ~keys:[ "balance" ] ~epsilon:Epsilon.Unlimited
    (fun o ->
      Printf.printf
        "eager query at t=%.1fms: balance=%s (charged %d inconsistency units)\n"
        o.Intf.served_at
        (Value.to_string (List.assoc "balance" o.Intf.values))
        o.Intf.charged);

  (* A query with epsilon = 0 demands strict serializability: it waits
     until the in-flight updates have completed everywhere. *)
  Harness.submit_query h ~site:0 ~keys:[ "balance" ] ~epsilon:(Epsilon.Limit 0)
    (fun o ->
      Printf.printf "strict query at t=%.1fms: balance=%s (charged %d, waited=%b)\n"
        o.Intf.served_at
        (Value.to_string (List.assoc "balance" o.Intf.values))
        o.Intf.charged o.Intf.consistent_path);

  (* Drain the simulation: deliver every MSet, run every retry. *)
  let settled = Harness.settle_result h = Harness.Drained in

  (* The paper's convergence guarantee: at quiescence all replicas hold
     the same (1SR) state. *)
  Printf.printf "settled=%b\n" settled;
  for site = 0 to 2 do
    Printf.printf "replica %d: balance=%s\n" site
      (Value.to_string (Store.get (Harness.store h ~site) "balance"))
  done;
  Printf.printf "replicas converged: %b\n" (Harness.converged h)
