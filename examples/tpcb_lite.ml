(* TPC-B-lite on epsilon-serializability: the paper's §2.1 consistency
   story made concrete.

   The classic TPC-B hierarchy — accounts roll up into tellers, tellers
   into a branch — is replicated across four sites under COMMU.  Every
   deposit is one update ET touching three counters:

       account += d;  teller += d;  branch += d

   Update ETs preserve the integrity constraint

       branch = Σ tellers = Σ accounts

   ("an U-ET preserves data consistency", §2.1), so at quiescence every
   replica satisfies it exactly.  Query ETs, however, read the three
   levels while deposits are still propagating:

   - an ε = 0 auditor waits out in-flight deposits and always sees the
     constraint hold;
   - an ε-budgeted dashboard reads through them and sees bounded
     violations — at most its inconsistency units' worth of in-flight
     deposits.

   Run with:  dune exec examples/tpcb_lite.exe *)

module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Store = Esr_store.Store
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Dist = Esr_util.Dist
module Prng = Esr_util.Prng

let n_sites = 4
let n_tellers = 3
let n_accounts = 9

let account i = Printf.sprintf "account-%d" i
let teller i = Printf.sprintf "teller-%d" i
let branch = "branch"

let all_keys =
  (branch :: List.init n_tellers teller) @ List.init n_accounts account

let int_of v = Option.value (Value.as_int v) ~default:0

(* Integrity constraint violation of one consistent snapshot: how far the
   rollups disagree. *)
let violation values =
  let get k = int_of (List.assoc k values) in
  let accounts = List.fold_left (fun acc i -> acc + get (account i)) 0 (List.init n_accounts Fun.id) in
  let tellers = List.fold_left (fun acc i -> acc + get (teller i)) 0 (List.init n_tellers Fun.id) in
  let b = get branch in
  abs (b - tellers) + abs (b - accounts)

let () =
  let wan =
    { Net.latency = Dist.Lognormal (3.6, 0.35); drop_probability = 0.01; duplicate_probability = 0.0 }
  in
  let h = Harness.create ~net_config:wan ~seed:404 ~sites:n_sites ~method_name:"COMMU" () in
  let engine = Harness.engine h in
  let prng = Prng.create 11 in

  (* 600 deposits over 30 virtual seconds. *)
  for i = 0 to 599 do
    ignore
      (Engine.schedule_at engine ~time:(float_of_int i *. 50.0) (fun () ->
           let a = Prng.int prng n_accounts in
           let d = Prng.int_in prng (-50) 80 in
           Harness.submit_update h
             ~origin:(Prng.int prng n_sites)
             [
               Intf.Add (account a, d);
               Intf.Add (teller (a mod n_tellers), d);
               Intf.Add (branch, d);
             ]
             ignore))
  done;

  (* Auditors sample the whole hierarchy during the run. *)
  let strict_worst = ref 0 and eager_worst = ref 0 and eager_units = ref 0 in
  for i = 1 to 12 do
    ignore
      (Engine.schedule_at engine ~time:(float_of_int i *. 2_400.0) (fun () ->
           let site = Prng.int prng n_sites in
           Harness.submit_query h ~site ~keys:all_keys ~epsilon:(Epsilon.Limit 0)
             (fun o ->
               let v = violation o.Intf.values in
               if v > !strict_worst then strict_worst := v);
           Harness.submit_query h ~site ~keys:all_keys ~epsilon:(Epsilon.Limit 6)
             (fun o ->
               let v = violation o.Intf.values in
               if v > !eager_worst then eager_worst := v;
               if o.Intf.charged > !eager_units then eager_units := o.Intf.charged)))
  done;

  let settled = Harness.settle_result h = Harness.Drained in
  Printf.printf "settled=%b converged=%b\n\n" settled (Harness.converged h);

  Printf.printf "mid-run auditors over 12 samples:\n";
  Printf.printf "  strict (eps=0):    worst constraint violation = %d\n" !strict_worst;
  Printf.printf "  eager  (eps<=6):   worst constraint violation = %d (max units %d)\n\n"
    !eager_worst !eager_units;

  (* At quiescence the constraint holds exactly at every replica. *)
  print_endline "at quiescence, every replica satisfies branch = sum(tellers) = sum(accounts):";
  for site = 0 to n_sites - 1 do
    let store = Harness.store h ~site in
    let get k = int_of (Store.get store k) in
    let accounts = List.fold_left (fun acc i -> acc + get (account i)) 0 (List.init n_accounts Fun.id) in
    let tellers = List.fold_left (fun acc i -> acc + get (teller i)) 0 (List.init n_tellers Fun.id) in
    Printf.printf "  site %d: branch=%-6d tellers=%-6d accounts=%-6d %s\n" site
      (get branch) tellers accounts
      (if get branch = tellers && tellers = accounts then "OK" else "VIOLATED")
  done
