(** Replicated-system harness: wires an engine, a network, and one
    replica-control method together, and knows how to drive the system to
    quiescence (the state in which the paper's convergence guarantee is
    stated: "replicas converge to the same 1SR value when the update
    MSets queued at individual sites are processed"). *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Prng = Esr_util.Prng
module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace
module Metrics = Esr_obs.Metrics
module Series = Esr_obs.Series
module Sharding = Esr_store.Sharding

type t = {
  engine : Engine.t;
  net : Net.t;
  env : Intf.env;
  system : Intf.system;
  seed : int;
  obs : Obs.t;
  (* Harness-level lifecycle sequence numbers.  ET ids are allocated
     inside the methods (and rejections can fire before one exists), so
     lifecycle trace events carry these instead. *)
  mutable next_u : int;
  mutable next_q : int;
  updates_submitted : Metrics.counter;
  updates_committed : Metrics.counter;
  updates_rejected : Metrics.counter;
  queries_submitted : Metrics.counter;
  queries_served : Metrics.counter;
  flush_rounds : Metrics.counter;
  commit_latency : Metrics.histogram;
  query_charged : Metrics.histogram;
  (* Epsilon budget across the run's limited-class queries: inconsistency
     units actually charged vs. the cumulative limit granted.  Updated
     only when the series is armed (zero-cost otherwise); read by the
     [esr/eps_*] probes. *)
  eps_consumed : float ref;
  eps_limit : float ref;
}

let create ?(config = Intf.default_config) ?net_config ?(seed = 42)
    ?store_hint ?engine_hint ?sharding ?obs ?checkpoint ~sites ~method_name () =
  let obs = match obs with Some o -> o | None -> Obs.default () in
  let engine = Engine.create ?hint:engine_hint () in
  let prng = Prng.create seed in
  let net_prng = Prng.split prng in
  let net = Net.create ?config:net_config ~obs engine ~sites ~prng:net_prng in
  let env =
    Intf.make_env ~config ?store_hint ?sharding ~obs ?checkpoint ~engine ~net
      ~prng ()
  in
  (* The probes below compare each site only on the keys it replicates;
     under the all-sites map that is every key at every site. *)
  let sharding = env.Intf.sharding in
  let keyspace = env.Intf.keyspace in
  Engine.set_prof engine obs.Obs.prof;
  let m = obs.Obs.metrics in
  let g name f = Metrics.gauge_fn m ~group:"engine" name f in
  g "scheduled" (fun () -> float_of_int (Engine.scheduled engine));
  g "fired" (fun () -> float_of_int (Engine.processed engine));
  g "cancelled" (fun () -> float_of_int (Engine.cancelled engine));
  g "pending" (fun () -> float_of_int (Engine.pending engine));
  let system = Registry.make ~name:method_name env in
  let kernel = system.Intf.kernel in
  let t =
    {
      engine;
      net;
      env;
      system;
      seed;
      obs;
      next_u = 0;
      next_q = 0;
      updates_submitted = Metrics.counter m ~group:"harness" "updates_submitted";
      updates_committed = Metrics.counter m ~group:"harness" "updates_committed";
      updates_rejected = Metrics.counter m ~group:"harness" "updates_rejected";
      queries_submitted = Metrics.counter m ~group:"harness" "queries_submitted";
      queries_served = Metrics.counter m ~group:"harness" "queries_served";
      flush_rounds = Metrics.counter m ~group:"harness" "flush_rounds";
      commit_latency =
        Metrics.histogram m ~group:"harness"
          ~buckets:[ 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. ]
          "commit_latency_ms";
      query_charged =
        Metrics.histogram m ~group:"harness"
          ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ]
          "query_charged";
      eps_consumed = ref 0.0;
      eps_limit = ref 0.0;
    }
  in
  (* Per-site resource probes (group ["res"]): pure reads of each
     replica's durable/volatile footprint, evaluated only at snapshot
     time, one [Replica.resources] (which walks the store) per site per
     snapshot.  Through the series registry binding they become
     [res/...] columns, which is what the soak experiment and the
     report's resources panel chart. *)
  for site = 0 to sites - 1 do
    Metrics.gauges_fn m ~group:"res" ~site
      (fun () -> Replica.resources kernel ~site)
      [
        ("log_entries", fun r -> float_of_int r.Intf.log_entries);
        ("log_bytes", fun r -> float_of_int r.Intf.log_bytes);
        ("wal_entries", fun r -> float_of_int r.Intf.wal_entries);
        ("wal_appended", fun r -> float_of_int r.Intf.wal_appended);
        ("wal_high_water", fun r -> float_of_int r.Intf.wal_high_water);
        ("journal_depth", fun r -> float_of_int r.Intf.journal_depth);
        ("journal_enqueued", fun r -> float_of_int r.Intf.journal_enqueued);
        ("store_words", fun r -> float_of_int r.Intf.store_words);
      ]
  done;
  (* Checkpoint gauges (group ["ckpt"], [ckpt/] series columns): only
     registered when the run checkpoints, so a checkpoint-off run's
     metrics snapshot — and therefore every report and series dump — is
     byte-identical to before this group existed. *)
  (match env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      for site = 0 to sites - 1 do
        let cg name f =
          Metrics.gauge_fn m ~group:"ckpt" ~site name (fun () ->
              float_of_int (f c ~site))
        in
        cg "cuts" Checkpoint.cuts;
        cg "truncated_log" Checkpoint.truncated_log;
        cg "truncated_journal" Checkpoint.truncated_journal;
        cg "baseline" Checkpoint.baseline;
        cg "tail_replays" Checkpoint.tail_replays;
        cg "last_tail" Checkpoint.last_tail;
        cg "max_tail" Checkpoint.max_tail
      done);
  Metrics.gauge_fn m ~group:"harness" "divergent_sites" (fun () ->
      float_of_int
        (Sharding.divergent_replicas sharding ~store:(fun site ->
             Replica.store kernel ~site)));
  let series = obs.Obs.series in
  if Series.on series then begin
    (* Derived ESR probes (the ["esr/"] prefix is what the report charts
       pick up).  All pure reads of replica state on the sampling path —
       nothing here can perturb the simulation. *)
    (* Per-key replica spread, once per sample for its three columns:
       the probes of one sample all run before its row is pushed, so the
       count of rows taken so far names the sample. *)
    let spread =
      let at = ref (-1) in
      let last =
        ref { Sharding.spread_max = 0.0; spread_mean = 0.0; divergent_keys = 0 }
      in
      fun () ->
        let n = Series.length series + Series.dropped series in
        if n <> !at then begin
          at := n;
          last :=
            Sharding.spread sharding ~keyspace ~store:(fun site ->
                Replica.store kernel ~site)
        end;
        !last
    in
    Series.probe series ~name:"esr/spread_max" (fun () ->
        (spread ()).Sharding.spread_max);
    Series.probe series ~name:"esr/spread_mean" (fun () ->
        (spread ()).Sharding.spread_mean);
    Series.probe series ~name:"esr/divergent_keys" (fun () ->
        float_of_int (spread ()).Sharding.divergent_keys);
    (* Outstanding update ETs: submitted, no outcome yet — the harness
       view of the MSet backlog still working through the fabric. *)
    Series.probe series ~name:"esr/backlog" (fun () ->
        Metrics.value t.updates_submitted
        -. Metrics.value t.updates_committed
        -. Metrics.value t.updates_rejected);
    Series.probe series ~name:"esr/eps_consumed" (fun () -> !(t.eps_consumed));
    Series.probe series ~name:"esr/eps_limit" (fun () -> !(t.eps_limit));
    (* Convergence lag: virtual ms since all replicas last held equal
       state (0 while converged).  [last_equal] advances only at sample
       points, so the lag is an upper bound at the sampling cadence. *)
    let last_equal = ref 0.0 in
    Series.probe series ~name:"esr/conv_lag" (fun () ->
        let t_now = Engine.now engine in
        if
          Sharding.converged sharding ~store:(fun site ->
              Replica.store kernel ~site)
        then begin
          last_equal := t_now;
          0.0
        end
        else t_now -. !last_equal);
    Series.probe series ~name:"esr/sites_down" (fun () ->
        float_of_int (List.length (Net.down_sites net)));
    (* The running method's own view of its outstanding work. *)
    Series.probe series ~name:"esr/method_backlog" (fun () ->
        float_of_int (system.Intf.backlog ()))
  end;
  t

let engine t = t.engine
let net t = t.net
let env t = t.env
let system t = t.system.kernel
let obs t = t.obs

let now t = Engine.now t.engine

let run_for t duration = Engine.run ~until:(now t +. duration) t.engine

let flush t = t.system.flush ()

let sample_series t = Series.sample t.obs.Obs.series ~time:(now t)

(* Tap the auditor into the run: it sees every trace record as it is
   emitted (immune to ring eviction) and registers its [audit/] gauges.
   Must run before {!arm_series} so the columns freeze into the series;
   requires tracing on, since a disabled sink refuses taps. *)
let attach_audit t (a : Esr_obs.Audit.t) =
  Esr_obs.Audit.bind_metrics a t.obs.Obs.metrics;
  Trace.attach t.obs.Obs.trace (Esr_obs.Audit.feed a)

(* Pre-schedule sampling ticks on the engine at the series cadence, from
   the current virtual time up to [until].  Pre-scheduling (rather than a
   self-rescheduling event) keeps [Engine.run]'s drain semantics intact:
   the sampler never generates work past the horizon. *)
let arm_series t ~until =
  let series = t.obs.Obs.series in
  if Series.on series then begin
    let period = Series.interval series in
    let time = ref (now t +. period) in
    while !time <= until do
      let at = !time in
      ignore (Engine.schedule_at t.engine ~time:at (fun () -> sample_series t));
      time := at +. period
    done
  end

(* Pre-schedule checkpoint cuts at every multiple of the interval through
   [until], mirroring {!arm_series}: pre-scheduling keeps [Engine.run]'s
   drain semantics (no work generated past the horizon).  Each tick cuts
   every site at the same virtual instant — one consistent system-wide
   cut per tick.  No-op when the run does not checkpoint. *)
let arm_checkpoints t ~until =
  match t.env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      let period = Checkpoint.interval c in
      let sites = t.env.Intf.sites in
      let time = ref (now t +. period) in
      while !time <= until do
        let at = !time in
        ignore
          (Engine.schedule_at t.engine ~time:at (fun () ->
               for site = 0 to sites - 1 do
                 Replica.cut t.system.kernel ~site
               done));
        time := at +. period
      done

let inject_faults t schedule =
  let checkpoint =
    Option.map Checkpoint.interval t.env.Intf.checkpoint
  in
  match
    Esr_fault.Schedule.validate ?checkpoint ~sites:t.env.Intf.sites schedule
  with
  | Error msg -> invalid_arg ("Harness.inject_faults: " ^ msg)
  | Ok () ->
      let series = t.obs.Obs.series in
      let annotate =
        if Series.on series then
          Some (fun ~time label -> Series.annotate series ~time label)
        else None
      in
      Esr_fault.Schedule.inject ?annotate t.engine t.net schedule
        ~on_crash:(fun site -> Replica.crash t.system.kernel ~site)
        ~on_recover:(fun site -> Replica.recover t.system.kernel ~site)

type stuck_reason =
  | Sites_down of int list
  | Partitioned of int list list
  | Protocol_stalled of { rounds : int }

type settle_outcome = Drained | Stuck of stuck_reason

let stuck_reason_to_string = function
  | Sites_down sites ->
      Printf.sprintf "sites still crashed: %s"
        (String.concat ", " (List.map string_of_int sites))
  | Partitioned groups ->
      Printf.sprintf "network partitioned: %s"
        (String.concat " | "
           (List.map
              (fun g -> String.concat " " (List.map string_of_int g))
              groups))
  | Protocol_stalled { rounds } ->
      Printf.sprintf "protocol not quiescent after %d flush rounds" rounds

(** Drain everything: repeatedly run the event loop and flush the method
    until both the engine and the protocol report quiescence.  When
    [max_rounds] flush rounds are not enough, the diagnostic says why the
    system cannot drain: a crashed site or a standing partition keeps
    stable-queue backlogs pinned, otherwise the protocol itself stalled. *)
let settle_result ?(max_rounds = 10) t =
  let trace = t.obs.Obs.trace in
  let round = ref 0 in
  let flush () =
    Metrics.incr t.flush_rounds;
    if Trace.on trace then
      Trace.emit trace ~time:(now t) (Trace.Flush_round { round = !round });
    incr round;
    t.system.flush ()
  in
  let rec loop rounds =
    if rounds = 0 then
      let reason =
        match Net.down_sites t.net with
        | _ :: _ as down -> Sites_down down
        | [] ->
            if Net.partitioned t.net then Partitioned (Net.partition_groups t.net)
            else Protocol_stalled { rounds = max_rounds }
      in
      Stuck reason
    else begin
      Engine.run t.engine;
      (* One series row per drain round: this is where divergence decays
         toward zero, which is exactly the tail the report charts. *)
      if Series.on t.obs.Obs.series then sample_series t;
      if t.system.quiescent () then Drained
      else begin
        flush ();
        loop (rounds - 1)
      end
    end
  in
  flush ();
  loop max_rounds

let run_with_faults ?max_rounds t ~schedule ~workload =
  inject_faults t schedule;
  workload t;
  (* Run at least past the schedule's last step so an all-clear schedule
     really is all clear before we try to drain. *)
  Engine.run ~until:(Esr_fault.Schedule.clear_time schedule) t.engine;
  settle_result ?max_rounds t

let converged t =
  let ok = Replica.converged t.system.kernel in
  let trace = t.obs.Obs.trace in
  if Trace.on trace then Trace.emit trace ~time:(now t) (Trace.Converged { ok });
  ok

let submit_update t ~origin intents k =
  let u = t.next_u in
  t.next_u <- u + 1;
  Metrics.incr t.updates_submitted;
  let start = now t in
  let trace = t.obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:start
      (Trace.Update_begin { u; origin; n_ops = List.length intents });
  t.system.submit_update ~origin intents (fun outcome ->
      (match outcome with
      | Intf.Committed { committed_at } ->
          Metrics.incr t.updates_committed;
          let latency = committed_at -. start in
          Metrics.observe t.commit_latency latency;
          if Trace.on trace then
            Trace.emit trace ~time:committed_at
              (Trace.Update_committed { u; origin; latency })
      | Intf.Rejected reason ->
          Metrics.incr t.updates_rejected;
          if Trace.on trace then
            Trace.emit trace ~time:(now t)
              (Trace.Update_rejected { u; origin; reason }));
      k outcome)

let submit_query t ~site ~keys ~epsilon k =
  let q = t.next_q in
  t.next_q <- q + 1;
  Metrics.incr t.queries_submitted;
  let eps =
    match (epsilon : Esr_core.Epsilon.spec) with
    | Esr_core.Epsilon.Unlimited -> None
    | Esr_core.Epsilon.Limit n -> Some n
  in
  let trace = t.obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(now t)
      (Trace.Query_begin { q; site; n_keys = List.length keys; epsilon = eps });
  t.system.submit_query ~site ~keys ~epsilon (fun outcome ->
      Metrics.incr t.queries_served;
      Metrics.observe t.query_charged (float_of_int outcome.Intf.charged);
      (if Series.on t.obs.Obs.series then
         match eps with
         | Some limit ->
             t.eps_consumed := !(t.eps_consumed) +. float_of_int outcome.Intf.charged;
             t.eps_limit := !(t.eps_limit) +. float_of_int limit
         | None -> ());
      if Trace.on trace then
        Trace.emit trace ~time:outcome.Intf.served_at
          (Trace.Query_served
             {
               q;
               site;
               charged = outcome.Intf.charged;
               forced = outcome.Intf.forced;
               epsilon = eps;
               consistent_path = outcome.Intf.consistent_path;
               latency = outcome.Intf.served_at -. outcome.Intf.started_at;
             });
      k outcome)

let store t ~site = Replica.store t.system.kernel ~site
let history t ~site = Replica.history t.system.kernel ~site

let stats t = Metrics.snapshot t.obs.Obs.metrics
