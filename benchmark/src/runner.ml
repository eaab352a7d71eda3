(* One method of a workload, run end to end: set up a harness, simulate,
   settle and verify, recording what was timed and counted.

   Every layer is measured from outside, by timing calls into public
   entry points ([Harness.create], [Engine.run]/[Engine.step],
   [Harness.submit_*], [Harness.settle_result], [Harness.converged],
   [Audit.finish]) and by reading counts through [Harness.stats],
   [Net.counters], [Intf.boxed_resources], [Checkpoint] and [Gc]. *)

module W = Workloads
module Intf = Esr_replica.Intf
module Harness = Esr_replica.Harness
module Checkpoint = Esr_replica.Checkpoint
module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Obs = Esr_obs.Obs
module Trace = Esr_obs.Trace
module Audit = Esr_obs.Audit
module Prof = Esr_obs.Prof
module Metrics = Esr_obs.Metrics
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Value = Esr_store.Value
module Epsilon = Esr_core.Epsilon
module Ibuf = Util.Ibuf

(* The harness seed is fixed: [--seed] moves arrivals and keys only, so
   host-time spread across seeds comes from the inputs, not from, say,
   backoff jitter. *)
let harness_seed = 42

(* Host timings the traced run adds around every call it makes. *)
type probe = {
  steps : Ibuf.t;  (** ns per [Engine.step] *)
  submits : Ibuf.t;  (** ns per [Harness.submit_update]/[submit_query] *)
  mutable trace_events : int;  (** records seen by a counting trace tap *)
}

let new_probe () =
  { steps = Ibuf.create (); submits = Ibuf.create (); trace_events = 0 }

(* The client: an update the method refuses (a 2PC deadlock or timeout
   abort, a crashed coordinator), or a query a crashed site answers
   degraded, is tried again at the next live site after [retry_ms]
   virtual ms, up to [max_attempts] times.  Only an operation that never
   succeeds counts as failed; latencies run from the original arrival. *)
let retry_ms = 100.0
let max_attempts = 200

(* Per-method outcome bookkeeping, filled in by the submit callbacks. *)
type tally = {
  u_attempts : int array;
  u_outcomes : int array;  (** must end equal to [u_attempts] *)
  commit_vms : float array;  (** virtual commit latency; nan until committed *)
  q_attempts : int array;
  q_outcomes : int array;  (** at most [q_attempts] *)
  query_vms : float array;  (** virtual latency; nan until served *)
  charged : int array;  (** charge of the answer that served the query *)
  mutable rejected : int;  (** refused update attempts *)
  mutable degraded : int;  (** degraded query answers *)
  mutable fallbacks : int;  (** queries served on the consistent path *)
  mutable over_epsilon : int;
}

let done_count a = Array.fold_left (fun n v -> if Float.is_nan v then n else n + 1) 0 a

type prepared = {
  h : Harness.t;
  audit : Audit.t option;
  tally : tally;
  setup_ns : int;
  create_ns : int;
}

let config (w : W.t) ~scale =
  {
    Intf.default_config with
    Intf.twopc_timeout = W.twopc_timeout w ~scale;
    retry_backoff =
      (if w.W.backoff then Some Esr_squeue.Squeue.default_backoff else None);
  }

let setup (w : W.t) (inp : W.inputs) ~scale ~method_name ~probe =
  let updates = List.assoc method_name inp.W.updates in
  let queries = inp.W.queries in
  let t0 = Util.now_ns () in
  let obs =
    Obs.create ~tracing:(w.W.audited || probe <> None) ~profiling:(probe <> None) ()
  in
  let sharding =
    Option.map
      (fun (shards, factor) ->
        Sharding.create ~policy:Sharding.Ring ~shards ~factor ~sites:w.W.sites ())
      w.W.ring
  in
  let checkpoint =
    Option.map
      (fun interval -> { Checkpoint.interval; retain = Checkpoint.default_retain })
      (W.checkpoint_interval w ~scale)
  in
  let h =
    Harness.create ~config:(config w ~scale) ~obs ~seed:harness_seed ?sharding ?checkpoint
      ~store_hint:w.W.n_keys
      ~engine_hint:(4 * (Array.length updates + Array.length queries))
      ~sites:w.W.sites ~method_name ()
  in
  let create_ns = Util.now_ns () - t0 in
  let env = Harness.env h in
  (* The whole keyspace is loaded up front, so shard placement (by
     interned id) does not depend on which key happens to arrive first. *)
  Array.iter (fun k -> ignore (Keyspace.intern env.Intf.keyspace k)) inp.W.keys;
  let audit =
    if w.W.audited then begin
      let a = Audit.create ~label:(w.W.name ^ "/" ^ method_name) () in
      Harness.attach_audit h a;
      Some a
    end
    else None
  in
  (match probe with
  | Some p -> Trace.attach obs.Obs.trace (fun _ -> p.trace_events <- p.trace_events + 1)
  | None -> ());
  let engine = Harness.engine h and net = Harness.net h in
  let nu = Array.length updates and nq = Array.length queries in
  let tally =
    {
      u_attempts = Array.make nu 0;
      u_outcomes = Array.make nu 0;
      commit_vms = Array.make nu Float.nan;
      q_attempts = Array.make nq 0;
      q_outcomes = Array.make nq 0;
      query_vms = Array.make nq Float.nan;
      charged = Array.make nq 0;
      rejected = 0;
      degraded = 0;
      fallbacks = 0;
      over_epsilon = 0;
    }
  in
  let timed f =
    match probe with
    | None -> f ()
    | Some p ->
        let a = Util.now_ns () in
        f ();
        Ibuf.push p.submits (Util.now_ns () - a)
  in
  let retry attempts f =
    if attempts < max_attempts then ignore (Engine.schedule engine ~delay:retry_ms f)
  in
  let rec live_from s n =
    if n = w.W.sites || Net.site_up net s then s else live_from ((s + 1) mod w.W.sites) (n + 1)
  in
  let rec update i (u : W.update) origin =
    tally.u_attempts.(i) <- tally.u_attempts.(i) + 1;
    timed (fun () ->
        Harness.submit_update h ~origin u.W.intents (fun outcome ->
            tally.u_outcomes.(i) <- tally.u_outcomes.(i) + 1;
            match outcome with
            | Intf.Committed { committed_at } ->
                tally.commit_vms.(i) <- committed_at -. u.W.u_at
            | Intf.Rejected _ ->
                tally.rejected <- tally.rejected + 1;
                retry tally.u_attempts.(i) (fun () -> update i u (live_from origin 0))))
  in
  Array.iteri
    (fun i (u : W.update) ->
      ignore (Engine.schedule_at engine ~time:u.W.u_at (fun () -> update i u u.W.origin)))
    updates;
  let epsilon =
    match w.W.epsilon with Some e -> Epsilon.Limit e | None -> Epsilon.Unlimited
  in
  let rec query i (q : W.query) drawn =
    tally.q_attempts.(i) <- tally.q_attempts.(i) + 1;
    (* Under partial replication the client re-homes the query onto a
       replica of its first key's shard. *)
    let site =
      match q.W.keys with
      | k :: _ ->
          Sharding.route_site env.Intf.sharding
            ~id:(Keyspace.find env.Intf.keyspace k)
            ~site:drawn
      | [] -> drawn
    in
    timed (fun () ->
        Harness.submit_query h ~site ~keys:q.W.keys ~epsilon (fun o ->
            tally.q_outcomes.(i) <- tally.q_outcomes.(i) + 1;
            (match w.W.epsilon with
            | Some e when o.Intf.charged - o.Intf.forced > e ->
                tally.over_epsilon <- tally.over_epsilon + 1
            | Some _ | None -> ());
            if Net.site_up net site then begin
              tally.query_vms.(i) <- o.Intf.served_at -. q.W.q_at;
              tally.charged.(i) <- o.Intf.charged;
              if o.Intf.consistent_path then tally.fallbacks <- tally.fallbacks + 1
            end
            else begin
              tally.degraded <- tally.degraded + 1;
              retry tally.q_attempts.(i) (fun () -> query i q (live_from site 0))
            end))
  in
  Array.iteri
    (fun i (q : W.query) ->
      ignore (Engine.schedule_at engine ~time:q.W.q_at (fun () -> query i q q.W.site)))
    queries;
  Harness.inject_faults h inp.W.plan;
  Harness.arm_checkpoints h ~until:(W.horizon w ~scale);
  { h; audit; tally; setup_ns = Util.now_ns () - t0; create_ns }

(* What one method run leaves behind.  [counts] are deterministic for a
   given seed and feed [model_digest]; the [_ns] fields are host time. *)
type method_run = {
  name : string;
  setup_ns : int;
  create_ns : int;
  run_ns : int;
  settle_ns : int;
  verify_ns : int;
  converged_ns : int;
  finish_ns : int;
  minor_words : float;  (** allocated by simulate *)
  counts : (string * int) list;
  digest : string;  (** counts plus final per-site stores *)
  commit_vms : float list;
  query_vms : float list;
  failures : string list;
  phases : (Prof.phase * Prof.agg) list;
}

let sum_sites sites f =
  let rec go s acc = if s = sites then acc else go (s + 1) (acc + f s) in
  go 0 0

let max_sites sites f =
  let rec go s acc = if s = sites then acc else go (s + 1) (Stdlib.max acc (f s)) in
  go 0 0

let stat entries ~group name =
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      if e.Metrics.group = group && e.Metrics.name = name && e.Metrics.site = None
      then
        match e.Metrics.view with
        | Metrics.Counter_v v | Metrics.Gauge_v v -> acc + int_of_float v
        | Metrics.Histogram_v _ -> acc
      else acc)
    0 entries

(* Order-sensitive integer mix for the store fingerprint. *)
let mix h x = (h lxor x) * 0x100000001b3

let value_hash = function
  | Value.Int n -> mix 1 n
  | Value.Str s -> mix 2 (Hashtbl.hash s)

let run_method (w : W.t) (inp : W.inputs) ~scale ~method_name ~probe =
  let p = setup w inp ~scale ~method_name ~probe in
  let h = p.h and tally = p.tally in
  let engine = Harness.engine h in
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  (match probe with
  | None -> Engine.run engine
  | Some pr ->
      let rec drain () =
        let a = Util.now_ns () in
        let more = Engine.step engine in
        let b = Util.now_ns () in
        if more then begin
          Ibuf.push pr.steps (b - a);
          drain ()
        end
      in
      drain ());
  let t1 = Util.now_ns () in
  let settled = Harness.settle_result h in
  let t2 = Util.now_ns () in
  let minor_words = Gc.minor_words () -. w0 in
  let converged = Harness.converged h in
  let t3 = Util.now_ns () in
  let report = Option.map Audit.finish p.audit in
  let t4 = Util.now_ns () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match settled with
  | Harness.Drained -> ()
  | Harness.Stuck r -> fail "did not drain: %s" (Harness.stuck_reason_to_string r));
  if not converged then fail "replicas differ at quiescence";
  Array.iteri
    (fun i n ->
      if n <> tally.u_attempts.(i) then
        fail "update %d got %d outcomes for %d attempts" i n tally.u_attempts.(i))
    tally.u_outcomes;
  Array.iteri
    (fun i n ->
      if n > tally.q_attempts.(i) then
        fail "query %d got %d outcomes for %d attempts" i n tally.q_attempts.(i))
    tally.q_outcomes;
  if tally.over_epsilon > 0 then
    fail "%d bounded queries charged more than epsilon" tally.over_epsilon;
  (match report with
  | Some r ->
      if not (Audit.ok r) then
        fail "audit found %d violations" (List.length r.Audit.violations);
      if Audit.partial r then fail "audit certificate is partial"
  | None -> ());
  let t5 = Util.now_ns () in
  (* Everything below is bookkeeping outside the timed phases. *)
  let sites = w.W.sites in
  let system = Harness.system h in
  let res = Array.init sites (fun site -> Intf.boxed_resources system ~site) in
  let ck = (Harness.env h).Intf.checkpoint in
  let ckpt f = match ck with Some c -> sum_sites sites (fun site -> f c ~site) | None -> 0 in
  let net = Net.counters (Harness.net h) in
  let stats = Harness.stats h in
  let total a = Array.fold_left ( + ) 0 a in
  let counts =
    [
      ("updates", Array.length tally.u_attempts);
      ("queries", Array.length tally.q_attempts);
      ("committed", done_count tally.commit_vms);
      ("served", done_count tally.query_vms);
      ("update_attempts", total tally.u_attempts);
      ("query_attempts", total tally.q_attempts);
      ("rejected", tally.rejected);
      ("degraded", tally.degraded);
      ("fallbacks", tally.fallbacks);
      ("charged", Array.fold_left ( + ) 0 tally.charged);
      ( "applied",
        sum_sites sites (fun s -> res.(s).Intf.log_entries) + ckpt Checkpoint.truncated_log );
      ("events", Engine.processed engine);
      ("scheduled", Engine.scheduled engine);
      ("cancelled", Engine.cancelled engine);
      ("msgs_sent", net.Net.sent);
      ("msgs_delivered", net.Net.delivered);
      ("msgs_dropped", net.Net.lost + net.Net.blocked);
      ("squeue_enqueued", stat stats ~group:"squeue" "enqueued");
      ("squeue_retransmits", stat stats ~group:"squeue" "retransmissions");
      ("squeue_dups", stat stats ~group:"squeue" "duplicates_suppressed");
      ("flush_rounds", stat stats ~group:"harness" "flush_rounds");
      ("store_words", sum_sites sites (fun s -> res.(s).Intf.store_words));
      ("log_entries", sum_sites sites (fun s -> res.(s).Intf.log_entries));
      ("wal_high_water", sum_sites sites (fun s -> res.(s).Intf.wal_high_water));
      ("lock_waits", stat stats ~group:"method" "lock_waits");
      ("aborts", stat stats ~group:"method" "aborted");
      ("cuts", ckpt Checkpoint.cuts);
      ("folded", ckpt Checkpoint.truncated_log);
      ( "max_tail",
        match ck with
        | Some c -> max_sites sites (fun site -> Checkpoint.max_tail c ~site)
        | None -> 0 );
      ("replays", ckpt Checkpoint.tail_replays);
      ( "audit_violations",
        match report with Some r -> List.length r.Audit.violations | None -> 0 );
    ]
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b method_name;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%d" k v) counts;
  let ks = (Harness.env h).Intf.keyspace in
  let ids = Array.map (Keyspace.find ks) inp.W.keys in
  for site = 0 to sites - 1 do
    let st = Harness.store h ~site in
    let acc = ref 0 in
    Array.iteri
      (fun rank id ->
        if Store.mem_id st id then
          acc := mix (mix !acc rank) (value_hash (Store.get_id st id)))
      ids;
    Printf.bprintf b " s%d=%x" site !acc
  done;
  let finite a = List.filter (fun v -> not (Float.is_nan v)) (Array.to_list a) in
  {
    name = method_name;
    setup_ns = p.setup_ns;
    create_ns = p.create_ns;
    run_ns = t1 - t0;
    settle_ns = t2 - t1;
    verify_ns = t5 - t2;
    converged_ns = t3 - t2;
    finish_ns = t4 - t3;
    minor_words;
    counts;
    digest = Buffer.contents b;
    commit_vms = finite tally.commit_vms;
    query_vms = finite tally.query_vms;
    failures = List.rev !failures;
    phases = Prof.aggs (Harness.obs h).Obs.prof;
  }
