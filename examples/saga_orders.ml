(* Order pipeline with sagas and compensations (COMPE, paper §4).

   An order is a *saga*: a sequence of update ETs — reserve stock, record
   revenue, schedule shipping — each applied optimistically at every
   replica before the payment authorization decides.  Per §4.2, the
   lock-counters of every step stay up until the whole saga ends, so
   dashboards reading mid-saga get a conservative (upper-bound) charge
   for the saga's total potential inconsistency.

   A declined payment aborts the in-flight step, and the previously
   committed steps are *revoked*: compensated in reverse, using logical
   inverses where the log commutes and Time-Warp undo/redo where it does
   not (a periodic repricing multiplies, which commutes with nothing).

   Run with:  dune exec examples/saga_orders.exe *)

module Intf = Esr_replica.Intf
module Compe = Esr_replica.Compe
module Replica = Esr_replica.Replica
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Store = Esr_store.Store
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng

let () =
  let config =
    {
      Intf.default_config with
      Intf.compe_abort_probability = 0.15;  (* payment declines 15% of steps *)
      compe_decision_delay = 120.0;  (* authorization takes 120ms *)
    }
  in
  let engine = Engine.create () in
  let prng = Prng.create 8 in
  let net = Net.create engine ~sites:3 ~prng:(Prng.split prng) in
  let env = Intf.make_env ~config ~engine ~net ~prng () in
  let sys = Compe.create env in

  let shipped = ref 0 and declined = ref 0 in
  let expected = ref (0, 0, 0) in
  for i = 0 to 59 do
    let at = float_of_int i *. 120.0 in
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           let origin = Prng.int prng 3 in
           if i mod 15 = 14 then
             (* Repricing: a multiplicative ET that commutes with nothing. *)
             Compe.submit_update sys ~origin [ Intf.Mul ("target", 2) ] ignore
           else begin
             let amount = 10 + Prng.int prng 90 in
             Compe.submit_saga sys ~origin
               [
                 [ Intf.Add ("stock", -1) ];
                 [ Intf.Add ("revenue", amount) ];
                 [ Intf.Add ("shipments", 1) ];
               ]
               (function
                 | Intf.Committed _ ->
                     incr shipped;
                     let s, r, h = !expected in
                     expected := (s - 1, r + amount, h + 1)
                 | Intf.Rejected _ -> incr declined)
           end))
  done;

  (* Ops dashboards watch the counters while payments are pending;
     mid-saga reads are charged for every undecided or counter-held step
     they can observe. *)
  let max_units = ref 0 and total_units = ref 0 and n_queries = ref 0 in
  for i = 0 to 19 do
    ignore
      (Engine.schedule_at engine ~time:(float_of_int i *. 350.0) (fun () ->
           Compe.submit_query sys ~site:(Prng.int prng 3)
             ~keys:[ "stock"; "revenue" ] ~epsilon:(Epsilon.Limit 6) (fun o ->
               incr n_queries;
               total_units := !total_units + o.Intf.charged;
               if o.Intf.charged > !max_units then max_units := o.Intf.charged)))
  done;

  (* Drain the simulation to quiescence. *)
  let rec settle n =
    if n = 0 then false
    else begin
      Engine.run engine;
      if Compe.quiescent sys then true
      else begin
        Compe.flush sys;
        settle (n - 1)
      end
    end
  in
  let settled = settle 10 in

  Printf.printf "orders shipped: %d, declined: %d (settled=%b)\n" !shipped
    !declined settled;
  let s, r, h = !expected in
  let show key want =
    Printf.printf "  %-10s %6s (expected %6d)\n" key
      (Value.to_string (Store.get (Replica.store (Compe.kernel sys) ~site:0) key))
      want
  in
  show "stock" s;
  show "revenue" r;
  show "shipments" h;
  Printf.printf "replicas converged: %b\n" (Replica.converged (Compe.kernel sys));
  Printf.printf
    "dashboards: %d reads, mean charge %.1f units, max %d (budget 6)\n\n"
    !n_queries
    (float_of_int !total_units /. float_of_int (max 1 !n_queries))
    !max_units;

  print_endline "compensation machinery used:";
  List.iter
    (fun (k, v) ->
      if
        List.mem k
          [
            "sagas"; "saga_aborts"; "revokes"; "aborts"; "fast_compensations";
            "full_rollbacks"; "replayed_ops"; "tainted_queries"; "forced_charges";
          ]
      then Printf.printf "  %-20s %.0f\n" k v)
    (Compe.stats sys)
