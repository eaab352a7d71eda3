(* Per-method unit tests: each replica-control method exercised directly
   through the harness on small, hand-crafted scenarios. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Value = Esr_store.Value
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Epsilon = Esr_core.Epsilon
module Esr_check = Esr_core.Esr_check
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Replica = Esr_replica.Replica
module Metrics = Esr_obs.Metrics
module Obs = Esr_obs.Obs
module Registry = Esr_replica.Registry
module Series = Esr_obs.Series

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let value_t = Alcotest.testable Value.pp Value.equal

let default = Intf.default_config

(* Latency with high variance so MSets genuinely arrive out of order. *)
let jittery = { Net.default_config with latency = Dist.Uniform (1.0, 80.0) }

let mk ?(config = default) ?(net_config = Net.default_config) ?(seed = 1)
    ?obs ?(sites = 3) name =
  Harness.create ~config ~net_config ~seed ?obs ~sites ~method_name:name ()

(* Drain the system; a run that cannot drain fails with the reason. *)
let run_settle h =
  match Harness.settle_result h with
  | Harness.Drained -> ()
  | Harness.Stuck r -> Alcotest.fail ("stuck: " ^ Harness.stuck_reason_to_string r)

let get h ~site key = Store.get (Harness.store h ~site) key

let stat h name =
  match
    List.assoc_opt name (Metrics.alist ~group:"method" (Harness.obs h).Obs.metrics)
  with
  | Some v -> int_of_float v
  | None -> Alcotest.fail (Printf.sprintf "missing stat %s" name)

let expect_committed = function
  | Intf.Committed _ -> ()
  | Intf.Rejected m -> Alcotest.fail ("unexpected rejection: " ^ m)

let all_sites_equal h ~sites key expected =
  for s = 0 to sites - 1 do
    Alcotest.check value_t (Printf.sprintf "site %d" s) expected (get h ~site:s key)
  done

(* --- registry --- *)

let test_registry_names () =
  Alcotest.(check (list string)) "all seven methods"
    [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]
    Registry.names

let test_registry_unknown () =
  checkb "unknown raises" true
    (try
       ignore (mk "NOPE");
       false
     with Invalid_argument _ -> true)

let test_registry_case_insensitive () =
  let h = mk "ordup" in
  run_settle h

let test_table1_metadata () =
  let meta name =
    List.find (fun (m : Intf.meta) -> m.Intf.name = name) Registry.metas
  in
  checkb "ORDUP forward" true ((meta "ORDUP").Intf.family = Intf.Forward);
  checkb "COMPE backward" true ((meta "COMPE").Intf.family = Intf.Backward);
  checkb "2PC synchronous" true ((meta "2PC").Intf.family = Intf.Synchronous);
  Alcotest.(check string) "ORDUP restriction" "message delivery"
    (meta "ORDUP").Intf.restriction;
  Alcotest.(check string) "ORDUP async" "Query only"
    (meta "ORDUP").Intf.async_propagation;
  Alcotest.(check string) "COMMU sorting" "doesn't matter"
    (meta "COMMU").Intf.sorting_time;
  Alcotest.(check string) "RITU sorting" "at read" (meta "RITU").Intf.sorting_time

(* --- ORDUP --- *)

let test_ordup_total_order_convergence () =
  (* Non-commutative overwrites under jittery delivery: ticket order must
     win at every replica. *)
  let h = mk ~net_config:jittery ~sites:4 "ORDUP" in
  for i = 1 to 9 do
    Harness.submit_update h ~origin:(i mod 4)
      [ Intf.Set ("x", Value.int i) ]
      expect_committed
  done;
  run_settle h;
  all_sites_equal h ~sites:4 "x" (Value.int 9);
  checkb "converged" true (Harness.converged h)

let test_ordup_commit_callback_fires () =
  let h = mk "ORDUP" in
  let committed = ref false in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 5) ] (fun o ->
      expect_committed o;
      committed := true);
  run_settle h;
  checkb "callback fired" true !committed;
  all_sites_equal h ~sites:3 "x" (Value.int 5)

let test_ordup_query_epsilon_zero_is_consistent () =
  let h = mk ~sites:3 "ORDUP" in
  (* Two updates in flight; an ε=0 query at a remote replica must wait for
     the global order and see both. *)
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] expect_committed;
  Harness.submit_update h ~origin:1 [ Intf.Add ("x", 2) ] expect_committed;
  let served = ref None in
  Harness.submit_query h ~site:2 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 0)
    (fun o -> served := Some o);
  run_settle h;
  match !served with
  | None -> Alcotest.fail "query never served"
  | Some o ->
      checki "charged nothing" 0 o.Intf.charged;
      Alcotest.check value_t "sees both updates" (Value.int 3)
        (List.assoc "x" o.Intf.values)

let test_ordup_query_unlimited_is_immediate () =
  let h = mk ~sites:3 "ORDUP" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] expect_committed;
  let served = ref None in
  Harness.submit_query h ~site:2 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
    (fun o -> served := Some o);
  (* Run only a moment: the unlimited query must not wait for delivery. *)
  Harness.run_for h 2.0;
  (match !served with
  | None -> Alcotest.fail "query should be served immediately"
  | Some o ->
      Alcotest.check value_t "stale read allowed" Value.zero
        (List.assoc "x" o.Intf.values);
      checkb "charged the missing update" true (o.Intf.charged >= 1));
  run_settle h

let test_ordup_epsilon_bound_respected () =
  let h = mk ~net_config:jittery ~sites:4 ~seed:5 "ORDUP" in
  let eps = 2 in
  let max_charged = ref 0 in
  for i = 0 to 30 do
    Harness.submit_update h ~origin:(i mod 4) [ Intf.Add ("x", 1) ] ignore;
    if i mod 3 = 0 then
      Harness.submit_query h ~site:((i + 1) mod 4) ~keys:[ "x" ]
        ~epsilon:(Epsilon.Limit eps) (fun o ->
          if o.Intf.charged > !max_charged then max_charged := o.Intf.charged)
  done;
  run_settle h;
  checkb "bound respected" true (!max_charged <= eps)

let test_ordup_lamport_mode_converges () =
  let config = { default with ordup_ordering = `Lamport } in
  let h = mk ~config ~net_config:jittery ~sites:3 ~seed:7 "ORDUP" in
  for i = 1 to 6 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Set ("x", Value.int i) ] ignore
  done;
  run_settle h;
  checkb "converged" true (Harness.converged h);
  (* All replicas agree; the winner is the Lamport-largest stamp. *)
  let v0 = get h ~site:0 "x" in
  all_sites_equal h ~sites:3 "x" v0

let test_ordup_histories_are_epsilon_serial () =
  let h = mk ~net_config:jittery ~sites:3 ~seed:3 "ORDUP" in
  for i = 0 to 9 do
    Harness.submit_update h ~origin:(i mod 3)
      [ Intf.Set ("a", Value.int i); Intf.Set ("b", Value.int (-i)) ]
      ignore;
    Harness.submit_query h ~site:(i mod 3) ~keys:[ "a"; "b" ]
      ~epsilon:Epsilon.Unlimited ignore
  done;
  run_settle h;
  for s = 0 to 2 do
    let hist = Harness.history h ~site:s in
    checkb
      (Printf.sprintf "site %d history ε-serial" s)
      true
      (Esr_check.is_epsilon_serial hist)
  done

(* --- COMMU --- *)

let test_commu_rejects_non_commutative () =
  let h = mk "COMMU" in
  let outcomes = ref [] in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 1) ] (fun o ->
      outcomes := o :: !outcomes);
  Harness.submit_update h ~origin:0 [ Intf.Mul ("x", 2) ] (fun o ->
      outcomes := o :: !outcomes);
  run_settle h;
  checki "both rejected" 2
    (List.length
       (List.filter (function Intf.Rejected _ -> true | _ -> false) !outcomes))

let test_commu_convergence_any_order () =
  let h = mk ~net_config:jittery ~sites:4 ~seed:9 "COMMU" in
  let expected = ref 0 in
  for i = 1 to 20 do
    expected := !expected + i;
    Harness.submit_update h ~origin:(i mod 4) [ Intf.Add ("x", i) ] expect_committed
  done;
  run_settle h;
  all_sites_equal h ~sites:4 "x" (Value.int !expected);
  checkb "converged" true (Harness.converged h)

let test_commu_epsilon_zero_waits_for_completion () =
  let h = mk ~sites:3 "COMMU" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] expect_committed;
  (* At the origin the lock-counter is up until every replica acked, so an
     ε=0 query there must block and then see the final value. *)
  let served = ref None in
  Harness.submit_query h ~site:0 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 0)
    (fun o -> served := Some o);
  checkb "not served synchronously" true (!served = None);
  run_settle h;
  match !served with
  | None -> Alcotest.fail "query stuck"
  | Some o ->
      checkb "waited" true o.Intf.consistent_path;
      Alcotest.check value_t "sees the update" (Value.int 7)
        (List.assoc "x" o.Intf.values)

let test_commu_epsilon_allows_reading_through () =
  let h = mk ~sites:3 "COMMU" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] expect_committed;
  let served = ref None in
  Harness.submit_query h ~site:0 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 1)
    (fun o -> served := Some o);
  (match !served with
  | Some o ->
      checki "charged one unit" 1 o.Intf.charged;
      Alcotest.check value_t "reads through" (Value.int 7)
        (List.assoc "x" o.Intf.values)
  | None -> Alcotest.fail "ε=1 query should not block");
  run_settle h

let test_commu_update_limit_abort () =
  let config =
    { default with commu_update_limit = Some 1; commu_limit_policy = `Abort }
  in
  let h = mk ~config ~sites:3 "COMMU" in
  let rejected = ref 0 in
  for _ = 1 to 5 do
    Harness.submit_update h ~origin:0 [ Intf.Add ("hot", 1) ] (function
      | Intf.Rejected _ -> incr rejected
      | Intf.Committed _ -> ())
  done;
  run_settle h;
  checkb "limit caused aborts" true (!rejected > 0);
  checkb "converged regardless" true (Harness.converged h)

let test_commu_update_limit_wait () =
  let config =
    { default with commu_update_limit = Some 1; commu_limit_policy = `Wait }
  in
  let h = mk ~config ~sites:3 "COMMU" in
  let committed = ref 0 in
  for _ = 1 to 5 do
    Harness.submit_update h ~origin:0 [ Intf.Add ("hot", 1) ] (function
      | Intf.Committed _ -> incr committed
      | Intf.Rejected _ -> ())
  done;
  run_settle h;
  checki "all eventually commit" 5 !committed;
  checkb "waits happened" true (stat h "update_waits" > 0);
  all_sites_equal h ~sites:3 "hot" (Value.int 5)

let test_commu_value_limit_bounds_pending_delta () =
  (* §5.1's "data value changed asynchronously" criterion: with a pending
     |delta| limit of 10 per object, a 7-point update admits but a second
     one must wait until the first completes. *)
  let config =
    { default with commu_value_limit = Some 10.0; commu_limit_policy = `Abort }
  in
  let h = mk ~config ~sites:3 "COMMU" in
  let outcomes = ref [] in
  let record o = outcomes := o :: !outcomes in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] record;
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] record;
  (* Submitted back-to-back: the second exceeds the pending weight. *)
  let rejected_now =
    List.exists (function Intf.Rejected _ -> true | _ -> false) !outcomes
  in
  checkb "second update refused while first pending" true rejected_now;
  run_settle h;
  (* Once drained, a fresh 7-point update is admissible again. *)
  let late = ref None in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] (fun o -> late := Some o);
  run_settle h;
  (match !late with
  | Some (Intf.Committed _) -> ()
  | Some (Intf.Rejected m) -> Alcotest.fail m
  | None -> Alcotest.fail "no outcome");
  all_sites_equal h ~sites:3 "x" (Value.int 14)

let test_commu_histories_epsilon_serial_semantic () =
  let h = mk ~net_config:jittery ~sites:3 ~seed:17 "COMMU" in
  for i = 0 to 14 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", 1) ] ignore;
    Harness.submit_query h ~site:((i + 1) mod 3) ~keys:[ "x" ]
      ~epsilon:Epsilon.Unlimited ignore
  done;
  run_settle h;
  for s = 0 to 2 do
    let hist = Harness.history h ~site:s in
    checkb "semantic ε-serial" true
      (Esr_check.is_epsilon_serial ~mode:Esr_core.Conflict.Semantic hist)
  done

(* --- RITU --- *)

let test_ritu_rejects_read_dependent () =
  let h = mk "RITU" in
  let rejected = ref false in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] (function
    | Intf.Rejected _ -> rejected := true
    | Intf.Committed _ -> ());
  run_settle h;
  checkb "Add rejected" true !rejected

let test_ritu_latest_wins_convergence () =
  let h = mk ~net_config:jittery ~sites:4 ~seed:23 "RITU" in
  for i = 1 to 12 do
    Harness.submit_update h ~origin:(i mod 4)
      [ Intf.Set ("x", Value.int i) ]
      expect_committed
  done;
  run_settle h;
  checkb "converged" true (Harness.converged h);
  checkb "stale writes were ignored somewhere" true (stat h "stale_writes_ignored" > 0)

let test_ritu_multi_versions_accumulate () =
  let config = { default with ritu_mode = `Multi } in
  let h = mk ~config ~sites:3 "RITU" in
  for i = 1 to 4 do
    Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int i) ] expect_committed
  done;
  run_settle h;
  match Replica.mvstore (Harness.system h) ~site:1 with
  | None -> Alcotest.fail "multi mode must expose mvstore"
  | Some mv ->
      checki "four versions" 4 (List.length (Mvstore.versions mv "x"));
      checkb "mvstores converged" true (Harness.converged h)

let test_ritu_multi_vtnc_query_modes () =
  let config = { default with ritu_mode = `Multi } in
  let h = mk ~config ~sites:3 "RITU" in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 1) ] expect_committed;
  run_settle h;
  (* A second update whose MSet has not yet reached site 1. *)
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 2) ] expect_committed;
  let strict = ref None and fresh = ref None in
  Harness.submit_query h ~site:0 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 0)
    (fun o -> strict := Some o);
  Harness.submit_query h ~site:0 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 1)
    (fun o -> fresh := Some o);
  (match (!strict, !fresh) with
  | Some s, Some f ->
      (* The origin's VTNC lags the other replicas' watermarks, so the
         strict query reads the stable prefix while the ε=1 query reads
         the newest version. *)
      Alcotest.check value_t "fresh read" (Value.int 2) (List.assoc "x" f.Intf.values);
      checki "fresh charged 1" 1 f.Intf.charged;
      checki "strict charged 0" 0 s.Intf.charged;
      checkb "strict is older or equal" true
        (Value.compare (List.assoc "x" s.Intf.values) (Value.int 2) <= 0)
  | _ -> Alcotest.fail "queries not served");
  run_settle h

let test_ritu_queries_never_block () =
  let h = mk ~sites:3 "RITU" in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 5) ] expect_committed;
  let served = ref false in
  Harness.submit_query h ~site:1 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 0)
    (fun _ -> served := true);
  checkb "served synchronously" true !served;
  run_settle h

(* --- COMPE --- *)

let test_compe_no_aborts_behaves_normally () =
  let config = { default with compe_abort_probability = 0.0 } in
  let h = mk ~config ~net_config:jittery ~sites:3 ~seed:31 "COMPE" in
  for i = 1 to 10 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", i) ] expect_committed
  done;
  run_settle h;
  all_sites_equal h ~sites:3 "x" (Value.int 55);
  checki "no compensation" 0 (stat h "aborts")

let test_compe_all_aborts_cancel_out () =
  let config = { default with compe_abort_probability = 1.0 } in
  let h = mk ~config ~sites:3 ~seed:37 "COMPE" in
  let rejected = ref 0 in
  for i = 1 to 8 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", i) ] (function
      | Intf.Rejected _ -> incr rejected
      | Intf.Committed _ -> Alcotest.fail "must abort")
  done;
  run_settle h;
  checki "all aborted" 8 !rejected;
  all_sites_equal h ~sites:3 "x" Value.zero;
  checkb "converged" true (Harness.converged h)

let test_compe_mixed_aborts_match_committed_sum () =
  let config = { default with compe_abort_probability = 0.4 } in
  let h = mk ~config ~net_config:jittery ~sites:3 ~seed:41 "COMPE" in
  let committed_sum = ref 0 in
  for i = 1 to 30 do
    let d = i in
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", d) ] (function
      | Intf.Committed _ -> committed_sum := !committed_sum + d
      | Intf.Rejected _ -> ())
  done;
  run_settle h;
  checkb "some aborted" true (stat h "aborts" > 0);
  checkb "some committed" true (!committed_sum > 0);
  all_sites_equal h ~sites:3 "x" (Value.int !committed_sum)

let test_compe_commutative_uses_fast_path () =
  let config = { default with compe_abort_probability = 0.5 } in
  let h = mk ~config ~sites:3 ~seed:43 "COMPE" in
  for i = 1 to 20 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", i) ] ignore
  done;
  run_settle h;
  checkb "aborts happened" true (stat h "aborts" > 0);
  checki "no full rollback for commuting ops" 0 (stat h "full_rollbacks");
  checkb "fast compensations used" true
    (stat h "fast_compensations" > 0 || stat h "skipped_aborts" > 0);
  checkb "converged" true (Harness.converged h)

let test_compe_non_commutative_full_rollback () =
  (* An aborted Set followed by later entries cannot use logical inverses:
     Write has none, so the log tail is physically undone and replayed. *)
  let config =
    { default with compe_abort_probability = 0.5; compe_decision_delay = 60.0 }
  in
  let h = mk ~config ~sites:3 ~seed:47 "COMPE" in
  for i = 1 to 24 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Set ("x", Value.int i) ] ignore
  done;
  run_settle h;
  checkb "aborts happened" true (stat h "aborts" > 0);
  checkb "full rollbacks happened" true (stat h "full_rollbacks" > 0);
  checkb "converged" true (Harness.converged h);
  let v0 = get h ~site:0 "x" in
  all_sites_equal h ~sites:3 "x" v0

let test_compe_mul_inc_identity_system_level () =
  (* System-level §4.1: an aborted Inc between two Muls must compensate to
     exactly the Mul-only result. *)
  let config = { default with compe_abort_probability = 0.0 } in
  let h = mk ~config ~sites:2 ~seed:53 "COMPE" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 5) ] expect_committed;
  run_settle h;
  (* Now an Inc that will abort, then a Mul that commits, forcing the
     rollback-undo-replay path because Inc and Mul do not commute. *)
  let sys = Harness.system h in
  ignore sys;
  all_sites_equal h ~sites:2 "x" (Value.int 5)

let test_compe_query_bound_and_taint_accounting () =
  let config =
    { default with compe_abort_probability = 0.5; compe_decision_delay = 80.0 }
  in
  let h = mk ~config ~sites:3 ~seed:59 "COMPE" in
  let max_charged = ref 0 in
  for i = 1 to 20 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", 1) ] ignore;
    Harness.submit_query h ~site:(i mod 3) ~keys:[ "x" ]
      ~epsilon:(Epsilon.Limit 2) (fun o ->
        if o.Intf.charged > !max_charged then max_charged := o.Intf.charged)
  done;
  run_settle h;
  (* Forced charges from compensations may exceed ε — that is the paper's
     point about backward methods — but they are counted. *)
  let forced = stat h "forced_charges" in
  checkb "bound respected up to forced charges" true
    (!max_charged <= 2 + forced);
  checkb "tainted bookkeeping present" true (stat h "tainted_queries" >= 0)

(* --- 2PC --- *)

let test_twopc_latency_two_round_trips () =
  let h = mk ~sites:3 "2PC" in
  let latency = ref 0.0 in
  let t0 = Harness.now h in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] (function
    | Intf.Committed { committed_at } -> latency := committed_at -. t0
    | Intf.Rejected m -> Alcotest.fail m);
  run_settle h;
  (* prepare (10ms) + vote (10ms) with the default constant latency. *)
  Alcotest.check (Alcotest.float 1e-6) "2 one-way hops" 20.0 !latency;
  all_sites_equal h ~sites:3 "x" (Value.int 1)

let test_twopc_convergence_under_contention () =
  let h = mk ~net_config:jittery ~sites:3 ~seed:61 "2PC" in
  let committed_sum = ref 0 in
  for i = 1 to 15 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Add ("x", i) ] (function
      | Intf.Committed _ -> committed_sum := !committed_sum + i
      | Intf.Rejected _ -> ())
  done;
  run_settle h;
  checkb "converged" true (Harness.converged h);
  all_sites_equal h ~sites:3 "x" (Value.int !committed_sum)

let test_twopc_queries_are_sr () =
  let h = mk ~sites:3 "2PC" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 9) ] expect_committed;
  run_settle h;
  let served = ref None in
  Harness.submit_query h ~site:2 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
    (fun o -> served := Some o);
  run_settle h;
  match !served with
  | Some o ->
      checki "never charged" 0 o.Intf.charged;
      Alcotest.check value_t "sees committed state" (Value.int 9)
        (List.assoc "x" o.Intf.values)
  | None -> Alcotest.fail "query not served"

let test_twopc_timeout_aborts_under_partition () =
  let config = { default with twopc_timeout = 300.0 } in
  let h = mk ~config ~sites:4 "2PC" in
  Net.partition (Harness.net h) [ [ 0; 1 ]; [ 2; 3 ] ];
  let outcome = ref None in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] (fun o -> outcome := Some o);
  Harness.run_for h 1_000.0;
  (match !outcome with
  | Some (Intf.Rejected _) -> ()
  | Some (Intf.Committed _) -> Alcotest.fail "cannot commit across partition"
  | None -> Alcotest.fail "timeout should have fired");
  Net.heal (Harness.net h);
  run_settle h;
  (* The abort propagated: nothing applied anywhere. *)
  all_sites_equal h ~sites:4 "x" Value.zero

(* The method's own backlog in the series row of the last drain round. *)
let method_backlog h =
  let s = (Harness.obs h).Obs.series in
  match (Series.column_index s "esr/method_backlog", List.rev (Series.to_list s)) with
  | Some i, (last : Series.sample) :: _ -> int_of_float last.Series.values.(i)
  | _ -> Alcotest.fail "no esr/method_backlog sample"

(* A participant's record of an update ET ends with the ET, on both
   paths that used to leave one behind: a participant that voted no, and
   a coordinator that timed out before sending any Prepare.  2PC's
   backlog counts the records, so it must read 0 once the run settles. *)
let test_twopc_records_end_with_their_ets () =
  let obs = Obs.create ~series:true () in
  let h = mk ~obs ~net_config:jittery ~sites:3 ~seed:7 "2PC" in
  let reasons = ref [] in
  (* A prepare granted [a] late asks for [b] while a query holds [b]
     and waits behind it on [a]. *)
  for i = 0 to 79 do
    ignore
      (Engine.schedule (Harness.engine h) ~delay:(float_of_int (i * 5)) (fun () ->
           let intents =
             if i mod 2 = 0 then [ Intf.Add ("a", 1) ] else [ Intf.Add ("a", 1); Intf.Add ("b", 1) ]
           in
           Harness.submit_update h ~origin:(i mod 3) intents (function
             | Intf.Rejected m -> reasons := m :: !reasons
             | Intf.Committed _ -> ());
           for site = 0 to 2 do
             Harness.submit_query h ~site ~keys:[ "b"; "a" ] ~epsilon:Epsilon.Unlimited ignore
           done))
  done;
  run_settle h;
  checkb "a participant voted no" true (List.mem "2PC: aborted (deadlock vote)" !reasons);
  checki "hot keys: no record left" 0 (method_backlog h);
  (* Site 2 coordinates, cut off from the lock service at site 0 for
     longer than the timeout. *)
  let config = { default with twopc_timeout = 300.0 } in
  let obs = Obs.create ~series:true () in
  let h = mk ~config ~obs ~net_config:jittery ~sites:4 "2PC" in
  Net.partition (Harness.net h) [ [ 0; 1 ]; [ 2; 3 ] ];
  let outcome = ref None in
  Harness.submit_update h ~origin:2 [ Intf.Add ("x", 1) ] (fun o -> outcome := Some o);
  Harness.run_for h 1_000.0;
  (match !outcome with
  | Some (Intf.Rejected m) -> Alcotest.(check string) "timed out" "2PC: aborted (timeout)" m
  | _ -> Alcotest.fail "the coordinator should have timed out");
  Net.heal (Harness.net h);
  run_settle h;
  checki "timeout: no record left" 0 (method_backlog h);
  (* Whichever of the dead ET's Lock_req and Decision reached site 0
     first, the lock service holds nothing for it, so [x] is free. *)
  Harness.submit_update h ~origin:2 [ Intf.Add ("x", 1) ] expect_committed;
  run_settle h;
  all_sites_equal h ~sites:4 "x" (Value.int 1)

(* --- QUORUM --- *)

let test_quorum_commit_and_read () =
  let h = mk ~sites:5 "QUORUM" in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 42) ] expect_committed;
  run_settle h;
  checkb "converged" true (Harness.converged h);
  all_sites_equal h ~sites:5 "x" (Value.int 42);
  let served = ref None in
  Harness.submit_query h ~site:3 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
    (fun o -> served := Some o);
  run_settle h;
  match !served with
  | Some o ->
      Alcotest.check value_t "quorum read" (Value.int 42)
        (List.assoc "x" o.Intf.values)
  | None -> Alcotest.fail "query not served"

let test_quorum_read_sees_committed_write () =
  (* Quorum intersection: a read issued right after the commit callback
     must see the new value even though some replicas are stale. *)
  let h = mk ~sites:5 ~net_config:jittery ~seed:67 "QUORUM" in
  let result = ref None in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 7) ] (fun o ->
      expect_committed o;
      Harness.submit_query h ~site:4 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
        (fun q -> result := Some (List.assoc "x" q.Intf.values)));
  run_settle h;
  match !result with
  | Some v -> Alcotest.check value_t "fresh" (Value.int 7) v
  | None -> Alcotest.fail "no result"

let test_quorum_version_ordering () =
  let h = mk ~sites:3 "QUORUM" in
  Harness.submit_update h ~origin:0 [ Intf.Set ("x", Value.int 1) ] expect_committed;
  run_settle h;
  Harness.submit_update h ~origin:1 [ Intf.Set ("x", Value.int 2) ] expect_committed;
  run_settle h;
  all_sites_equal h ~sites:3 "x" (Value.int 2)

let test_quorum_rejects_unsupported () =
  let h = mk ~sites:3 "QUORUM" in
  let rejections = ref 0 in
  let count = function Intf.Rejected _ -> incr rejections | Intf.Committed _ -> () in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] count;
  Harness.submit_update h ~origin:0
    [ Intf.Set ("x", Value.int 1); Intf.Set ("y", Value.int 2) ]
    count;
  run_settle h;
  checki "both rejected" 2 !rejections

(* --- QUASI --- *)

let test_quasi_primary_commit_and_propagation () =
  let h = mk ~sites:3 "QUASI" in
  let committed = ref false in
  Harness.submit_update h ~origin:2 [ Intf.Add ("x", 5) ] (function
    | Intf.Committed _ -> committed := true
    | Intf.Rejected m -> Alcotest.fail m);
  run_settle h;
  checkb "committed at primary" true !committed;
  all_sites_equal h ~sites:3 "x" (Value.int 5);
  checkb "converged" true (Harness.converged h)

let test_quasi_drift_defers_refresh () =
  let config = { default with quasi_refresh = `Drift 10.0 } in
  let h = mk ~config ~sites:3 "QUASI" in
  (* A +4 drift stays inside the closeness band: no refresh yet. *)
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 4) ] ignore;
  Harness.run_for h 200.0;
  Alcotest.check value_t "replica still stale" Value.zero (get h ~site:1 "x");
  Alcotest.check value_t "primary current" (Value.int 4) (get h ~site:0 "x");
  (* Another +8 pushes the drift past 10: refresh fires. *)
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 8) ] ignore;
  Harness.run_for h 200.0;
  Alcotest.check value_t "replica refreshed" (Value.int 12) (get h ~site:1 "x");
  (* Final flush reconciles whatever is left in the band. *)
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] ignore;
  run_settle h;
  checkb "converged at quiescence" true (Harness.converged h);
  all_sites_equal h ~sites:3 "x" (Value.int 13)

let test_quasi_strict_query_reads_primary () =
  let config = { default with quasi_refresh = `Drift 100.0 } in
  let h = mk ~config ~sites:3 "QUASI" in
  Harness.submit_update h ~origin:0 [ Intf.Add ("x", 7) ] ignore;
  Harness.run_for h 100.0;
  let lazy_read = ref None and strict_read = ref None in
  Harness.submit_query h ~site:2 ~keys:[ "x" ] ~epsilon:Epsilon.Unlimited
    (fun o -> lazy_read := Some (List.assoc "x" o.Intf.values));
  Harness.submit_query h ~site:2 ~keys:[ "x" ] ~epsilon:(Epsilon.Limit 0)
    (fun o -> strict_read := Some (List.assoc "x" o.Intf.values));
  run_settle h;
  (match !lazy_read with
  | Some v -> Alcotest.check value_t "quasi-copy is stale" Value.zero v
  | None -> Alcotest.fail "lazy query not served");
  match !strict_read with
  | Some v -> Alcotest.check value_t "primary read is fresh" (Value.int 7) v
  | None -> Alcotest.fail "strict query not served"

let test_quasi_periodic_batches () =
  let config = { default with quasi_refresh = `Periodic 500.0 } in
  let h = mk ~config ~sites:3 "QUASI" in
  for _ = 1 to 10 do
    Harness.submit_update h ~origin:0 [ Intf.Add ("x", 1) ] ignore
  done;
  run_settle h;
  checkb "converged" true (Harness.converged h);
  all_sites_equal h ~sites:3 "x" (Value.int 10);
  (* Ten updates, but (at most a couple of) batched refreshes. *)
  let refreshes = stat h "refreshes" in
  checkb (Printf.sprintf "batched (%d refreshes)" refreshes) true (refreshes <= 3)

(* --- interned-store observational equivalence --- *)

(* The interned flat store (and its growth path) must be invisible:
   running the same workload with a 1-slot store hint — forcing repeated
   doubling of both the keyspace and the per-site cell arrays — and a
   comfortably oversized hint must produce identical commit counts,
   identical per-site snapshots, and identical durable histories, for
   every one of the seven methods. *)
let prop_store_hint_invariance =
  QCheck.Test.make
    ~name:"store hint never changes observable behaviour (all 7 methods)"
    ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000) (int_range 5 25)))
    (fun (seed, n_updates) ->
      List.for_all
        (fun name ->
          let run hint =
            let h =
              Harness.create ~config:default ~net_config:jittery ~seed
                ~store_hint:hint ~sites:3 ~method_name:name ()
            in
            let engine = Harness.engine h in
            let committed = ref 0 in
            for i = 0 to n_updates - 1 do
              ignore
                (Engine.schedule_at engine
                   ~time:(float_of_int (i + 1) *. 20.0)
                   (fun () ->
                     let key = Printf.sprintf "k%d" (i mod 7) in
                     let intents =
                       match name with
                       | "RITU" | "QUORUM" -> [ Intf.Set (key, Value.int i) ]
                       | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
                     in
                     Harness.submit_update h ~origin:(i mod 3) intents (function
                       | Intf.Committed _ -> incr committed
                       | Intf.Rejected _ -> ())))
            done;
            let settled = Harness.settle_result h in
            let snaps =
              List.init 3 (fun s -> Store.snapshot (Harness.store h ~site:s))
            in
            let hists = List.init 3 (fun s -> Harness.history h ~site:s) in
            (settled, !committed, snaps, hists)
          in
          run 1 = run 2_048)
        [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ])

(* --- sharding: identity under full replication, convergence under
   partial replication, fanout scaling --- *)

module Sharding = Esr_store.Sharding

let all_methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ]

(* Drive [n_updates] through a harness built with the given shard map
   and return every observable: settled flag, commit count, per-site
   snapshots and durable histories. *)
let run_sharded ?sharding ~seed ~sites ~n_updates name =
  let h =
    Harness.create ~config:default ~net_config:jittery ~seed ?sharding ~sites
      ~method_name:name ()
  in
  let engine = Harness.engine h in
  let committed = ref 0 in
  for i = 0 to n_updates - 1 do
    ignore
      (Engine.schedule_at engine
         ~time:(float_of_int (i + 1) *. 20.0)
         (fun () ->
           let key = Printf.sprintf "k%d" (i mod 7) in
           let intents =
             match name with
             | "RITU" | "QUORUM" -> [ Intf.Set (key, Value.int i) ]
             | _ -> [ Intf.Add (key, 1 + (i mod 3)) ]
           in
           Harness.submit_update h ~origin:(i mod sites) intents (function
             | Intf.Committed _ -> incr committed
             | Intf.Rejected _ -> ())))
  done;
  let settled = Harness.settle_result h = Harness.Drained in
  let snaps =
    List.init sites (fun s -> Store.snapshot (Harness.store h ~site:s))
  in
  let hists = List.init sites (fun s -> Harness.history h ~site:s) in
  (h, (settled, !committed, snaps, hists))

(* A replication factor of n_sites must be invisible: the default env
   (no shard map), an explicit All-policy map, and a Ring map with
   factor = sites must all produce identical observables for every one
   of the seven methods. *)
let prop_sharding_identity =
  QCheck.Test.make
    ~name:"factor = sites reproduces full replication (all 7 methods)"
    ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000) (int_range 5 20)))
    (fun (seed, n_updates) ->
      List.for_all
        (fun name ->
          let sites = 3 in
          let run sharding =
            snd (run_sharded ?sharding ~seed ~sites ~n_updates name)
          in
          let base = run None in
          base = run (Some (Sharding.full ~sites))
          && base
             = run
                 (Some
                    (Sharding.create ~policy:Sharding.Ring ~shards:5
                       ~factor:sites ~sites ())))
        all_methods)

(* Under genuinely partial replication every method must still settle
   and pass its own shard-aware convergence oracle, for both partial
   placement policies. *)
let prop_sharding_convergence =
  QCheck.Test.make
    ~name:"partial replication converges (all 7 methods, ring & hash)"
    ~count:6
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 1_000) (int_range 5 20) bool))
    (fun (seed, n_updates, hash) ->
      let policy = if hash then Sharding.Hash else Sharding.Ring in
      List.for_all
        (fun name ->
          let sites = 5 in
          let sharding =
            Sharding.create ~policy ~shards:7 ~factor:2 ~sites ()
          in
          let h, (settled, committed, _, _) =
            run_sharded ~sharding ~seed ~sites ~n_updates name
          in
          ignore committed;
          settled && Harness.converged h)
        all_methods)

(* The tentpole claim at unit-test scale: transport volume tracks the
   replication factor, not the site count.  The same workload on 24
   sites enqueues several times fewer stable-queue messages under
   factor-3 ring placement than under full replication. *)
let test_sharding_fanout_scales_with_factor () =
  let squeue_enqueued h =
    List.fold_left
      (fun a (e : Esr_obs.Metrics.entry) ->
        match (e.Esr_obs.Metrics.group, e.Esr_obs.Metrics.name, e.Esr_obs.Metrics.view) with
        | "squeue", "enqueued", Esr_obs.Metrics.Counter_v v -> a +. v
        | _ -> a)
      0.0 (Harness.stats h)
  in
  let sites = 24 and n_updates = 20 in
  List.iter
    (fun name ->
      let h_full, (settled_full, _, _, _) =
        run_sharded ~seed:11 ~sites ~n_updates name
      in
      let sharding =
        Sharding.create ~policy:Sharding.Ring ~shards:sites ~factor:3 ~sites ()
      in
      let h_shard, (settled_shard, _, _, _) =
        run_sharded ~sharding ~seed:11 ~sites ~n_updates name
      in
      checkb (name ^ " full settled") true settled_full;
      checkb (name ^ " sharded settled") true settled_shard;
      checkb (name ^ " sharded converged") true (Harness.converged h_shard);
      let full = squeue_enqueued h_full and shard = squeue_enqueued h_shard in
      checkb
        (Printf.sprintf "%s fanout shrinks (%.0f -> %.0f)" name full shard)
        true
        (shard <= full *. 0.5))
    all_methods

(* --- convergence can fail: the store-image half and each method's
   agreement half of [Harness.converged] --- *)

let images h ~sites =
  List.init sites (fun site -> Store.snapshot (Harness.store h ~site))

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* RITU multi mode: replicas must agree on every version, not only on the
   latest-writer image.  An extra, older version at one site leaves all
   store images equal and still breaks convergence. *)
let test_converged_ritu_versions () =
  let config = { default with ritu_mode = `Multi } in
  let h = mk ~config ~sites:3 "RITU" in
  for i = 1 to 3 do
    Harness.submit_update h ~origin:(i mod 3) [ Intf.Set ("x", Value.int i) ]
      expect_committed
  done;
  run_settle h;
  checkb "settled run converged" true (Harness.converged h);
  let before = images h ~sites:3 in
  (match Replica.mvstore (Harness.system h) ~site:1 with
  | None -> Alcotest.fail "multi mode must expose mvstore"
  | Some mv ->
      let older = Esr_clock.Gtime.make ~counter:0 ~site:2 in
      checkb "older version appended" true
        (Mvstore.append mv "x" ~ts:older (Value.int 99)));
  checkb "store images untouched" true (images h ~sites:3 = before);
  checkb "store images all equal" true (all_equal before);
  checkb "version lists disagree" false (Harness.converged h)

(* QUASI: every quasi-copy must equal the primary's copy.  One value
   written into every replica of a shard the primary (site 0) does not
   replicate keeps those replicas equal, and still breaks convergence. *)
let test_converged_quasi_primary () =
  let sites = 6 in
  let sharding =
    Sharding.create ~policy:Sharding.Ring ~factor:3 ~sites ()
  in
  let h = Harness.create ~sharding ~sites ~method_name:"QUASI" () in
  for i = 0 to 5 do
    Harness.submit_update h ~origin:i
      [ Intf.Add (Printf.sprintf "k%d" i, 1) ]
      expect_committed
  done;
  run_settle h;
  checkb "settled run converged" true (Harness.converged h);
  let keyspace = (Harness.env h).Intf.keyspace in
  let reps key =
    Sharding.replicas sharding
      (Sharding.shard_of_id sharding (Esr_store.Keyspace.intern keyspace key))
  in
  let key =
    List.find
      (fun key -> not (Array.mem 0 (reps key)))
      (List.init 12 (Printf.sprintf "k%d"))
  in
  Array.iter
    (fun site -> Store.set (Harness.store h ~site) key (Value.int 42))
    (reps key);
  checkb "the shard's replicas agree" true
    (Sharding.converged sharding ~store:(fun site ->
         Harness.store h ~site));
  checkb "quasi-copies differ from the primary" false (Harness.converged h)

(* Every method: one changed store cell at one replica is divergence. *)
let test_converged_detects_a_changed_cell () =
  List.iter
    (fun name ->
      let h = mk ~sites:3 name in
      for i = 0 to 5 do
        let key = Printf.sprintf "k%d" (i mod 2) in
        let intent =
          match name with
          | "RITU" | "QUORUM" -> Intf.Set (key, Value.int i)
          | _ -> Intf.Add (key, 1)
        in
        Harness.submit_update h ~origin:(i mod 3) [ intent ] ignore
      done;
      run_settle h;
      checkb (name ^ " settled run converged") true (Harness.converged h);
      Store.set (Harness.store h ~site:1) "k0" (Value.int 12_345);
      checkb (name ^ " changed cell diverges") false (Harness.converged h))
    all_methods

(* --- the durable log --- *)

module Checkpoint = Esr_replica.Checkpoint
module Op = Esr_store.Op

(* Words allocated on this domain so far: minor plus direct-to-major, a
   promoted block counted once.  OCaml 5 folds the major and promoted
   counts into the stats at collections, so finish a cycle first (after
   only a minor collection the two drift apart by a few percent, run to
   run). *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A site's log is columns: an append costs its three words (ET id, key
   id, a pointer to the shared op) in a chunk, where a cons list of
   action records took 7; after a cut, appends reuse the chunks. *)
let test_log_append_words () =
  let h =
    Harness.create ~sites:2 ~method_name:"ORDUP"
      ~checkpoint:{ Checkpoint.interval = 100.0; retain = 1 } ()
  in
  let (Replica.Any k) = Harness.system h in
  let site = k.Replica.sites.(0) in
  let op = Op.Incr 1 in
  let n = 100_000 in
  let append () =
    for i = 1 to n do
      Replica.log_id site ~et:i ~id:(i land 63) op
    done
  in
  let per_entry f =
    let w0 = allocated_words () in
    f ();
    (allocated_words () -. w0) /. float_of_int n
  in
  let fresh = per_entry append in
  let r = Replica.resources (Harness.system h) ~site:0 in
  checki "every append is an entry" n r.Intf.log_entries;
  checki "log bytes are 3 words an entry" (n * 3 * (Sys.word_size / 8))
    r.Intf.log_bytes;
  checkb (Printf.sprintf "%.2f words per append <= 3.1" fresh) true (fresh <= 3.1);
  Replica.cut (Harness.system h) ~site:0;
  checki "a cut empties the log" 0
    (Replica.resources (Harness.system h) ~site:0).Intf.log_entries;
  let reused = per_entry append in
  checkb
    (Printf.sprintf "%.3f words per append after a cut <= 0.01" reused)
    true (reused <= 0.01)

(* A logged read looks its key up once, for the log and the store: a key
   a site wrote reads its value there and zero at a site that did not,
   and a key no site has written reads zero, is logged by name and is not
   interned. *)
let test_log_read () =
  let h = mk ~sites:2 "ORDUP" in
  let (Replica.Any k) = Harness.system h in
  let store = Harness.store h ~site:0 in
  Store.set store "w" (Value.int 7);
  let read site et key = Value.to_string (Replica.read k ~site ~et key) in
  Alcotest.(check string) "written here" "7" (read 0 1 "w");
  Alcotest.(check string) "written elsewhere" "0" (read 1 2 "w");
  Alcotest.(check string) "written nowhere" "0" (read 0 3 "never");
  checkb "a read interns nothing" false
    (Esr_store.Keyspace.mem (Store.keyspace store) "never");
  let logged site =
    List.map
      (fun a -> (a.Esr_core.Et.et, a.Esr_core.Et.key, a.Esr_core.Et.op = Op.Read))
      (Esr_core.Hist.actions (Harness.history h ~site))
  in
  checkb "site 0 logs both reads by name" true
    (logged 0 = [ (1, "w", true); (3, "never", true) ]);
  checkb "site 1 logs its read" true (logged 1 = [ (2, "w", true) ])

let () =
  Alcotest.run "esr_replica"
    [
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "unknown" `Quick test_registry_unknown;
          Alcotest.test_case "case insensitive" `Quick test_registry_case_insensitive;
          Alcotest.test_case "Table 1 metadata" `Quick test_table1_metadata;
        ] );
      ( "ordup",
        [
          Alcotest.test_case "total order convergence" `Quick
            test_ordup_total_order_convergence;
          Alcotest.test_case "commit callback" `Quick test_ordup_commit_callback_fires;
          Alcotest.test_case "ε=0 query is consistent" `Quick
            test_ordup_query_epsilon_zero_is_consistent;
          Alcotest.test_case "unlimited query immediate" `Quick
            test_ordup_query_unlimited_is_immediate;
          Alcotest.test_case "ε bound respected" `Quick test_ordup_epsilon_bound_respected;
          Alcotest.test_case "lamport mode converges" `Quick
            test_ordup_lamport_mode_converges;
          Alcotest.test_case "histories ε-serial" `Quick
            test_ordup_histories_are_epsilon_serial;
        ] );
      ( "commu",
        [
          Alcotest.test_case "rejects non-commutative" `Quick
            test_commu_rejects_non_commutative;
          Alcotest.test_case "any-order convergence" `Quick
            test_commu_convergence_any_order;
          Alcotest.test_case "ε=0 waits for completion" `Quick
            test_commu_epsilon_zero_waits_for_completion;
          Alcotest.test_case "ε=1 reads through" `Quick
            test_commu_epsilon_allows_reading_through;
          Alcotest.test_case "update limit abort" `Quick test_commu_update_limit_abort;
          Alcotest.test_case "update limit wait" `Quick test_commu_update_limit_wait;
          Alcotest.test_case "value limit bounds pending delta" `Quick
            test_commu_value_limit_bounds_pending_delta;
          Alcotest.test_case "histories semantically ε-serial" `Quick
            test_commu_histories_epsilon_serial_semantic;
        ] );
      ( "ritu",
        [
          Alcotest.test_case "rejects read-dependent" `Quick
            test_ritu_rejects_read_dependent;
          Alcotest.test_case "latest wins convergence" `Quick
            test_ritu_latest_wins_convergence;
          Alcotest.test_case "multi versions accumulate" `Quick
            test_ritu_multi_versions_accumulate;
          Alcotest.test_case "VTNC query modes" `Quick test_ritu_multi_vtnc_query_modes;
          Alcotest.test_case "queries never block" `Quick test_ritu_queries_never_block;
        ] );
      ( "compe",
        [
          Alcotest.test_case "no aborts" `Quick test_compe_no_aborts_behaves_normally;
          Alcotest.test_case "all aborts cancel" `Quick test_compe_all_aborts_cancel_out;
          Alcotest.test_case "mixed aborts match committed sum" `Quick
            test_compe_mixed_aborts_match_committed_sum;
          Alcotest.test_case "commutative fast path" `Quick
            test_compe_commutative_uses_fast_path;
          Alcotest.test_case "non-commutative full rollback" `Quick
            test_compe_non_commutative_full_rollback;
          Alcotest.test_case "mul/inc identity" `Quick
            test_compe_mul_inc_identity_system_level;
          Alcotest.test_case "query bound and taint" `Quick
            test_compe_query_bound_and_taint_accounting;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "latency 2 hops" `Quick test_twopc_latency_two_round_trips;
          Alcotest.test_case "convergence" `Quick test_twopc_convergence_under_contention;
          Alcotest.test_case "queries SR" `Quick test_twopc_queries_are_sr;
          Alcotest.test_case "timeout under partition" `Quick
            test_twopc_timeout_aborts_under_partition;
          Alcotest.test_case "participant records end with their ETs" `Quick
            test_twopc_records_end_with_their_ets;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "commit and read" `Quick test_quorum_commit_and_read;
          Alcotest.test_case "read sees committed write" `Quick
            test_quorum_read_sees_committed_write;
          Alcotest.test_case "version ordering" `Quick test_quorum_version_ordering;
          Alcotest.test_case "rejects unsupported" `Quick test_quorum_rejects_unsupported;
        ] );
      ( "quasi",
        [
          Alcotest.test_case "primary commit + propagation" `Quick
            test_quasi_primary_commit_and_propagation;
          Alcotest.test_case "drift defers refresh" `Quick
            test_quasi_drift_defers_refresh;
          Alcotest.test_case "strict query reads primary" `Quick
            test_quasi_strict_query_reads_primary;
          Alcotest.test_case "periodic batches" `Quick test_quasi_periodic_batches;
        ] );
      ( "interning",
        [ QCheck_alcotest.to_alcotest prop_store_hint_invariance ] );
      ( "sharding",
        [
          QCheck_alcotest.to_alcotest prop_sharding_identity;
          QCheck_alcotest.to_alcotest prop_sharding_convergence;
          Alcotest.test_case "fanout scales with factor" `Quick
            test_sharding_fanout_scales_with_factor;
        ] );
      ( "log",
        [
          Alcotest.test_case "an append costs its three column words" `Quick
            test_log_append_words;
          Alcotest.test_case "a read finds its key once" `Quick test_log_read;
        ] );
      ( "converge",
        [
          Alcotest.test_case "RITU multi checks version lists" `Quick
            test_converged_ritu_versions;
          Alcotest.test_case "QUASI checks quasi-copies against the primary"
            `Quick test_converged_quasi_primary;
          Alcotest.test_case "a changed cell diverges (all 7 methods)" `Quick
            test_converged_detects_a_changed_cell;
        ] );
    ]
