(* Bank branches with asynchronous replication (the paper's motivating
   style of application for COMMU, §3.2).

   Five branch offices fully replicate a set of accounts.  Deposits and
   withdrawals are commutative increments, so branches apply them in
   whatever order the WAN delivers.  Auditors run multi-account queries
   with different inconsistency budgets:

   - the "dashboard" auditor (epsilon = unlimited) wants an instant,
     possibly slightly stale figure;
   - the "regulator" auditor (epsilon = 0) insists on a strictly
     serializable answer and pays for it in waiting time.

   Run with:  dune exec examples/bank_accounts.exe *)

module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Store = Esr_store.Store
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Prng = Esr_util.Prng
module Stats = Esr_util.Stats

let n_branches = 5
let accounts = [| "acct-alice"; "acct-bob"; "acct-carol"; "acct-dave" |]

let () =
  let wan =
    { Net.latency = Dist.Lognormal (3.6, 0.35); drop_probability = 0.01; duplicate_probability = 0.0 }
  in
  let h =
    Harness.create ~net_config:wan ~seed:2026 ~sites:n_branches
      ~method_name:"COMMU" ()
  in
  let engine = Harness.engine h in
  let prng = Prng.create 99 in

  (* 400 transfers over 20 virtual seconds, from random branches. *)
  let committed = ref 0 in
  let expected = Hashtbl.create 8 in
  for i = 0 to 399 do
    let at = float_of_int i *. 50.0 in
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           let branch = Prng.int prng n_branches in
           let account = Prng.choose prng accounts in
           let amount = Prng.int_in prng (-40) 60 in
           Hashtbl.replace expected account
             (Option.value (Hashtbl.find_opt expected account) ~default:0 + amount);
           Harness.submit_update h ~origin:branch
             [ Intf.Add (account, amount) ]
             (function Intf.Committed _ -> incr committed | Intf.Rejected _ -> ())))
  done;

  (* Two auditors sample total balances during the run. *)
  let dashboard_lat = Stats.create () and regulator_lat = Stats.create () in
  let dashboard_units = Stats.create () in
  let audit ~label ~epsilon ~lat ~units at =
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           let t0 = Engine.now engine in
           Harness.submit_query h ~site:(Prng.int prng n_branches)
             ~keys:(Array.to_list accounts) ~epsilon (fun o ->
               Stats.add lat (o.Intf.served_at -. t0);
               Stats.add units (float_of_int o.Intf.charged);
               if at = 10_000.0 then
                 Printf.printf "%s audit at t=%.0fms: total=%d (charged %d units)\n"
                   label at
                   (List.fold_left
                      (fun acc (_, v) ->
                        acc + Option.value (Value.as_int v) ~default:0)
                      0 o.Intf.values)
                   o.Intf.charged)))
  in
  let regulator_units = Stats.create () in
  List.iter
    (fun at ->
      audit ~label:"dashboard" ~epsilon:Epsilon.Unlimited ~lat:dashboard_lat
        ~units:dashboard_units at;
      audit ~label:"regulator" ~epsilon:(Epsilon.Limit 0) ~lat:regulator_lat
        ~units:regulator_units at)
    [ 2_000.0; 6_000.0; 10_000.0; 14_000.0; 18_000.0 ];

  let settled = Harness.settle_result h = Harness.Drained in
  Printf.printf "\n%d/400 transfers committed; settled=%b\n" !committed settled;
  Printf.printf "dashboard audits: mean latency %.1fms, mean units %.1f\n"
    (Stats.mean dashboard_lat) (Stats.mean dashboard_units);
  Printf.printf "regulator audits: mean latency %.1fms, mean units %.1f\n"
    (Stats.mean regulator_lat) (Stats.mean regulator_units);

  (* Convergence: every branch agrees with the expected ledger. *)
  Printf.printf "\nfinal balances (branch 0) vs expected:\n";
  Array.iter
    (fun account ->
      let got = Store.get (Harness.store h ~site:0) account in
      let want = Option.value (Hashtbl.find_opt expected account) ~default:0 in
      Printf.printf "  %-12s %6s (expected %6d) %s\n" account
        (Value.to_string got) want
        (if Value.equal got (Value.int want) then "OK" else "MISMATCH"))
    accounts;
  Printf.printf "all branches converged: %b\n" (Harness.converged h)
