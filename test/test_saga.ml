(* Saga tests (COMPE, paper §4.2): multi-step update ETs whose
   lock-counters are held until the saga ends, with backward recovery
   (revocation of committed steps) when a later step aborts. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Prng = Esr_util.Prng
module Value = Esr_store.Value
module Store = Esr_store.Store
module Epsilon = Esr_core.Epsilon
module Intf = Esr_replica.Intf
module Compe = Esr_replica.Compe
module Replica = Esr_replica.Replica

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let value_t = Alcotest.testable Value.pp Value.equal

let mk ?(config = Intf.default_config) ?(net_config = Net.default_config)
    ?(seed = 5) ?(sites = 3) () =
  let engine = Engine.create () in
  let prng = Prng.create seed in
  let net = Net.create ~config:net_config engine ~sites ~prng:(Prng.split prng) in
  let env = Intf.make_env ~config ~engine ~net ~prng () in
  (engine, Compe.create env)

let settle engine sys =
  let rec loop n =
    if n = 0 then false
    else begin
      Engine.run engine;
      if Compe.quiescent sys then true
      else begin
        Compe.flush sys;
        loop (n - 1)
      end
    end
  in
  loop 10

let stat sys name =
  match List.assoc_opt name (Compe.stats sys) with
  | Some v -> int_of_float v
  | None -> Alcotest.fail ("missing stat " ^ name)

let test_saga_commits_all_steps () =
  let config = { Intf.default_config with Intf.compe_abort_probability = 0.0 } in
  let engine, sys = mk ~config () in
  let outcome = ref None in
  Compe.submit_saga sys ~origin:0
    [
      [ Intf.Add ("stock", -2) ];
      [ Intf.Add ("reserved", 2) ];
      [ Intf.Add ("shipped", 2) ];
    ]
    (fun o -> outcome := Some o);
  checkb "settled" true (settle engine sys);
  (match !outcome with
  | Some (Intf.Committed _) -> ()
  | Some (Intf.Rejected m) -> Alcotest.fail m
  | None -> Alcotest.fail "saga never finished");
  for site = 0 to 2 do
    Alcotest.check value_t "stock" (Value.int (-2)) (Store.get (Replica.store (Compe.kernel sys) ~site) "stock");
    Alcotest.check value_t "reserved" (Value.int 2) (Store.get (Replica.store (Compe.kernel sys) ~site) "reserved");
    Alcotest.check value_t "shipped" (Value.int 2) (Store.get (Replica.store (Compe.kernel sys) ~site) "shipped")
  done;
  checkb "converged" true (Replica.converged (Compe.kernel sys));
  checki "one saga" 1 (stat sys "sagas");
  checki "no revokes" 0 (stat sys "revokes")

let test_saga_holds_counters_until_end () =
  (* Counters of a committed step stay up until the saga ends, so a query
     between step decisions is still charged for it — the conservative
     upper bound of §4.2. *)
  let config =
    { Intf.default_config with Intf.compe_abort_probability = 0.0; compe_decision_delay = 100.0 }
  in
  let engine, sys = mk ~config () in
  Compe.submit_saga sys ~origin:0
    [ [ Intf.Add ("x", 1) ]; [ Intf.Add ("y", 1) ] ]
    ignore;
  let mid_units = ref (-1) in
  (* t=150: step 1 (on x) has committed, step 2 (on y) is undecided; a
     query on x at the origin must still be charged for step 1. *)
  ignore
    (Engine.schedule engine ~delay:150.0 (fun () ->
         Compe.submit_query sys ~site:0 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
           (fun o -> mid_units := o.Intf.charged)));
  checkb "settled" true (settle engine sys);
  checki "mid-saga query charged for the decided step" 1 !mid_units;
  (* Contrast: two independent updates release their counters at their own
     completion, so the same probe sees a zero charge. *)
  let engine2, sys2 = mk ~config () in
  Compe.submit_update sys2 ~origin:0 [ Intf.Add ("x", 1) ] ignore;
  ignore
    (Engine.schedule engine2 ~delay:150.0 (fun () ->
         Compe.submit_update sys2 ~origin:0 [ Intf.Add ("y", 1) ] ignore));
  let solo_units = ref (-1) in
  ignore
    (Engine.schedule engine2 ~delay:160.0 (fun () ->
         Compe.submit_query sys2 ~site:0 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
           (fun o -> solo_units := o.Intf.charged)));
  checkb "settled" true (settle engine2 sys2);
  checki "independent update already released" 0 !solo_units

let test_saga_abort_at_first_step_is_clean () =
  let config = { Intf.default_config with Intf.compe_abort_probability = 1.0 } in
  let engine, sys = mk ~config () in
  let outcome = ref None in
  Compe.submit_saga sys ~origin:1
    [ [ Intf.Add ("a", 5) ]; [ Intf.Add ("b", 5) ] ]
    (fun o -> outcome := Some o);
  checkb "settled" true (settle engine sys);
  (match !outcome with
  | Some (Intf.Rejected m) ->
      Alcotest.(check string) "aborted at step 1" "saga aborted at step 1" m
  | Some (Intf.Committed _) -> Alcotest.fail "cannot commit with p=1"
  | None -> Alcotest.fail "saga never finished");
  for site = 0 to 2 do
    Alcotest.check value_t "a reverted" Value.zero (Store.get (Replica.store (Compe.kernel sys) ~site) "a");
    Alcotest.check value_t "b untouched" Value.zero (Store.get (Replica.store (Compe.kernel sys) ~site) "b")
  done;
  checkb "converged" true (Replica.converged (Compe.kernel sys));
  checki "second step never launched" 0 (stat sys "revokes")

(* Drive many sagas under a mixed abort rate: committed sagas' effects and
   only those must survive, revocation must actually fire, and the system
   must converge. *)
let test_saga_mixed_outcomes_converge () =
  let config =
    {
      Intf.default_config with
      Intf.compe_abort_probability = 0.35;
      compe_decision_delay = 40.0;
    }
  in
  let net_config = { Net.default_config with Net.latency = Dist.Uniform (2.0, 30.0) } in
  let engine, sys = mk ~config ~net_config ~seed:31 () in
  let committed_total = ref 0 in
  let prng = Prng.create 77 in
  for i = 0 to 29 do
    let amount = 1 + Prng.int prng 9 in
    ignore
      (Engine.schedule engine ~delay:(float_of_int i *. 120.0) (fun () ->
           Compe.submit_saga sys ~origin:(i mod 3)
             [ [ Intf.Add ("ledger", amount) ]; [ Intf.Add ("ledger", amount) ] ]
             (function
               | Intf.Committed _ -> committed_total := !committed_total + (2 * amount)
               | Intf.Rejected _ -> ())))
  done;
  checkb "settled" true (settle engine sys);
  checkb "some sagas aborted" true (stat sys "saga_aborts" > 0);
  checkb "some sagas committed" true (!committed_total > 0);
  checkb "revocation fired" true (stat sys "revokes" > 0);
  for site = 0 to 2 do
    Alcotest.check value_t
      (Printf.sprintf "ledger at site %d" site)
      (Value.int !committed_total)
      (Store.get (Replica.store (Compe.kernel sys) ~site) "ledger")
  done;
  checkb "converged" true (Replica.converged (Compe.kernel sys))

let test_saga_revoke_non_commutative_step () =
  (* A committed Mul step revoked after later commutative traffic forces
     the full-rollback path during revocation. *)
  let config =
    { Intf.default_config with Intf.compe_abort_probability = 0.5; compe_decision_delay = 50.0 }
  in
  let engine, sys = mk ~config ~seed:13 () in
  let prng = Prng.create 3 in
  for i = 0 to 19 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int i *. 80.0) (fun () ->
           Compe.submit_saga sys ~origin:(i mod 3)
             [ [ Intf.Add ("v", 1 + Prng.int prng 5) ]; [ Intf.Mul ("v", 2) ] ]
             ignore))
  done;
  checkb "settled" true (settle engine sys);
  checkb "converged" true (Replica.converged (Compe.kernel sys));
  checkb "sagas aborted" true (stat sys "saga_aborts" > 0)

(* Internal-consistency invariant: every store mutation is a log entry,
   so folding a site's remaining log over an empty store reproduces its
   store exactly — the property that keeps full-rollback before-image
   chains accurate (a bug here once made replicas diverge). *)
let test_log_fold_invariant () =
  let config =
    {
      Intf.default_config with
      Intf.compe_abort_probability = 0.3;
      compe_decision_delay = 60.0;
    }
  in
  let net_config = { Net.default_config with Net.latency = Dist.Uniform (2.0, 60.0) } in
  let engine, sys = mk ~config ~net_config ~seed:91 () in
  let prng = Prng.create 17 in
  for i = 0 to 39 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int i *. 70.0) (fun () ->
           if i mod 7 = 6 then
             Compe.submit_update sys ~origin:(i mod 3) [ Intf.Mul ("m", 2) ] ignore
           else
             Compe.submit_saga sys ~origin:(i mod 3)
               [ [ Intf.Add ("m", 1 + Prng.int prng 4) ]; [ Intf.Add ("n", 1) ] ]
               ignore))
  done;
  checkb "settled" true (settle engine sys);
  for site = 0 to 2 do
    let folded = Store.create () in
    List.iter
      (fun (_, _, ops) ->
        List.iter
          (fun (k, op) ->
            match Store.apply folded k op with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "fold failed")
          ops)
      (Compe.log_entries sys ~site);
    checkb
      (Printf.sprintf "site %d: store = fold(log)" site)
      true
      (Store.equal folded (Replica.store (Compe.kernel sys) ~site))
  done;
  checkb "converged" true (Replica.converged (Compe.kernel sys))

let test_saga_empty_rejected () =
  let engine, sys = mk () in
  let rejections = ref 0 in
  Compe.submit_saga sys ~origin:0 [] (function
    | Intf.Rejected _ -> incr rejections
    | Intf.Committed _ -> ());
  Compe.submit_saga sys ~origin:0 [ [ Intf.Add ("x", 1) ]; [] ] (function
    | Intf.Rejected _ -> incr rejections
    | Intf.Committed _ -> ());
  checkb "settled" true (settle engine sys);
  checki "both rejected" 2 !rejections

let () =
  Alcotest.run "esr_saga"
    [
      ( "sagas",
        [
          Alcotest.test_case "commits all steps" `Quick test_saga_commits_all_steps;
          Alcotest.test_case "holds counters until end" `Quick
            test_saga_holds_counters_until_end;
          Alcotest.test_case "abort at first step" `Quick
            test_saga_abort_at_first_step_is_clean;
          Alcotest.test_case "mixed outcomes converge" `Quick
            test_saga_mixed_outcomes_converge;
          Alcotest.test_case "revokes non-commutative step" `Quick
            test_saga_revoke_non_commutative_step;
          Alcotest.test_case "store = fold(log) invariant" `Quick
            test_log_fold_invariant;
          Alcotest.test_case "empty saga rejected" `Quick test_saga_empty_rejected;
        ] );
    ]
