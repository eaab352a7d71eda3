(* A replicated name service in the Grapevine / Clearinghouse style
   (paper §5.4), built on RITU with multiple versions (§3.3).

   Registrations are timestamped blind writes — the new binding does not
   depend on the old one — so replicas apply them in any order and
   converge by latest-timestamp-wins.  Lookups choose their side of the
   freshness/consistency dial:

   - stable lookups (epsilon = 0) read at the VTNC: the prefix of
     versions that can never be invalidated by a late-arriving update;
   - fresh lookups (epsilon >= 1) may read versions above the VTNC,
     paying one inconsistency unit per fresh read.

   Run with:  dune exec examples/directory_service.exe *)

module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Epsilon = Esr_core.Epsilon
module Value = Esr_store.Value
module Mvstore = Esr_store.Mvstore
module Gtime = Esr_clock.Gtime
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Dist = Esr_util.Dist

let () =
  let wan =
    { Net.latency = Dist.Uniform (20.0, 80.0); drop_probability = 0.01; duplicate_probability = 0.0 }
  in
  let config = { Intf.default_config with Intf.ritu_mode = `Multi } in
  let h =
    Harness.create ~config ~net_config:wan ~seed:11 ~sites:4
      ~method_name:"RITU" ()
  in
  let engine = Harness.engine h in

  let register ~at ~site name addr =
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           Harness.submit_update h ~origin:site
             [ Intf.Set (name, Value.str addr) ]
             (function
               | Intf.Committed _ ->
                   Printf.printf "t=%5.0f  site %d registers %s -> %s\n" at site
                     name addr
               | Intf.Rejected r -> Printf.printf "rejected: %s\n" r)))
  in
  let lookup ~at ~site ~epsilon label name =
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           Harness.submit_query h ~site ~keys:[ name ] ~epsilon (fun o ->
               let shown =
                 match List.assoc name o.Intf.values with
                 | Value.Str s -> s
                 | Value.Int _ ->
                     (* No version is below the VTNC yet: origins that have
                        never spoken hold the stable prefix back — the
                        reason directory systems gossip heartbeats. *)
                     "(no stable binding yet)"
               in
               Printf.printf "t=%5.0f  site %d %s lookup %s = %s (units %d)\n"
                 (Engine.now engine) site label name shown o.Intf.charged)))
  in

  (* mailbox "calton" moves between hosts; lookups race the propagation *)
  register ~at:0.0 ~site:0 "calton" "host-a.cs.columbia.edu";
  register ~at:500.0 ~site:1 "avraham" "host-b.cs.columbia.edu";
  register ~at:1_000.0 ~site:2 "calton" "host-c.cs.columbia.edu";

  (* Right after the re-registration: a fresh lookup at the origin sees
     the new binding (charging a unit), a stable lookup reads the VTNC
     prefix. *)
  lookup ~at:1_010.0 ~site:2 ~epsilon:(Epsilon.Limit 1) "fresh " "calton";
  lookup ~at:1_010.0 ~site:2 ~epsilon:(Epsilon.Limit 0) "stable" "calton";

  (* After the system quiesces, fresh and stable lookups agree. *)
  lookup ~at:4_000.0 ~site:3 ~epsilon:(Epsilon.Limit 1) "fresh " "calton";
  lookup ~at:4_000.0 ~site:3 ~epsilon:(Epsilon.Limit 0) "stable" "calton";

  let settled = Harness.settle_result h = Harness.Drained in
  Printf.printf "\nsettled=%b converged=%b\n" settled (Harness.converged h);

  (* Show the version history a replica keeps. *)
  match Intf.boxed_mvstore (Harness.system h) ~site:3 with
  | None -> assert false
  | Some mv ->
      Printf.printf "version history of \"calton\" at site 3 (VTNC %s):\n"
        (Gtime.to_string (Mvstore.vtnc mv));
      List.iter
        (fun v ->
          Printf.printf "  @%s %s\n"
            (Gtime.to_string v.Mvstore.ts)
            (Value.to_string v.Mvstore.value))
        (Mvstore.versions mv "calton")
