(* A benchmark run of one workload: generate the inputs, run timed rounds
   (each sets up, simulates and verifies every method) until the time
   budget is spent, optionally add a traced round, check everything, and
   derive the metrics.

   All rounds of a run use the same generated inputs, so each round must
   reproduce the first one's [model_digest] exactly.  Every method starts
   on a freshly collected heap.  Host timings are taken from each
   method's fastest round ({!best}): on a shared host, other tenants slow
   whole stretches of rounds, by up to half, while nothing makes a round
   faster than the program allows. *)

module W = Workloads
module Prof = Esr_obs.Prof
module Ibuf = Util.Ibuf

(* Garbage-collector work of one round, summed over its methods. *)
type gc = {
  alloc_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type round = { runs : Runner.method_run list; gc : gc }

let total f r = List.fold_left (fun a m -> a + f m) 0 r.runs
let sim_ns (m : Runner.method_run) = m.Runner.run_ns + m.Runner.settle_ns
let wall_ns (m : Runner.method_run) = m.Runner.setup_ns + sim_ns m + m.Runner.verify_ns

let counts r =
  match r.runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) ->
          (k, total (fun m -> List.assoc k m.Runner.counts) r))
        first.Runner.counts

let count r k = List.assoc k (counts r)

let digest r =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun m -> m.Runner.digest) r.runs)))

let round w inp ~scale ~probe =
  List.fold_left
    (fun r method_name ->
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let m = Runner.run_method w inp ~scale ~method_name ~probe in
      let g1 = Gc.quick_stat () in
      let d f = f g1 -. f g0 and n f = f g1 - f g0 in
      {
        runs = r.runs @ [ m ];
        gc =
          {
            alloc_words =
              r.gc.alloc_words
              +. d (fun g -> g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words);
            promoted_words = r.gc.promoted_words +. d (fun g -> g.Gc.promoted_words);
            minor_collections = r.gc.minor_collections + n (fun g -> g.Gc.minor_collections);
            major_collections = r.gc.major_collections + n (fun g -> g.Gc.major_collections);
          };
      })
    {
      runs = [];
      gc = { alloc_words = 0.0; promoted_words = 0.0; minor_collections = 0; major_collections = 0 };
    }
    w.W.methods

type t = {
  workload : W.t;
  gen_s : float;
  rounds : round list;  (** untraced, in order *)
  peak_heap_words : int;
  traced : (round * Runner.probe) option;
  failures : string list;
}

let execute (w : W.t) ~seed ~scale ~seconds ~traced =
  let t0 = Util.now_ns () in
  let inp = W.generate w ~seed ~scale in
  let gen_s = Util.seconds (Util.now_ns () - t0) in
  (* Rounds until the budget is spent, never starting one that would
     overrun it (at least one). *)
  let budget = int_of_float (seconds *. 1e9) in
  let start = Util.now_ns () in
  let first = round w inp ~scale ~probe:None in
  (* The peak of the first round alone: later rounds reuse a heap that
     OCaml 5.1 never compacts, so the process peak would drift with the
     number of rounds the host speed allowed. *)
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec loop acc =
    let elapsed = Util.now_ns () - start in
    if elapsed + (elapsed / List.length acc) > budget then List.rev acc
    else loop (round w inp ~scale ~probe:None :: acc)
  in
  let rounds = loop [ first ] in
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  List.iter
    (fun m ->
      List.iter (fun f -> fail (m.Runner.name ^ ": " ^ f)) m.Runner.failures)
    first.runs;
  List.iteri
    (fun i r ->
      if digest r <> digest first then
        fail (Printf.sprintf "round %d model_digest differs from round 0" i))
    rounds;
  let traced =
    if not traced then None
    else begin
      let probe = Runner.new_probe () in
      let r = round w inp ~scale ~probe:(Some probe) in
      List.iter
        (fun m ->
          List.iter (fun f -> fail ("traced " ^ m.Runner.name ^ ": " ^ f)) m.Runner.failures)
        r.runs;
      if digest r <> digest first then fail "traced model_digest differs from untraced";
      if counts r <> counts first then fail "traced counts differ from untraced";
      Some (r, probe)
    end
  in
  {
    workload = w;
    gen_s;
    rounds;
    peak_heap_words;
    traced;
    failures = List.rev !failures;
  }

let correct t = t.failures = []
let first t = List.hd t.rounds
let attempted t = count (first t) "updates" + count (first t) "queries"

(* Operations that never succeeded, client retries included. *)
let failed t =
  let r = first t in
  count r "updates" - count r "committed" + count r "queries" - count r "served"

let model_digest t = digest (first t)

(* --- metrics --------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let word_bytes = float_of_int (Sys.word_size / 8)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Each method's fastest round, summed over the methods: a slow stretch
   of the host has to cover every run of a method to count against it. *)
let best f t =
  let runs = List.map (fun r -> Array.of_list r.runs) t.rounds in
  let n = Array.length (List.hd runs) in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + List.fold_left (fun a rs -> Stdlib.min a (f rs.(i))) max_int runs
  done;
  Util.seconds !sum

let end_to_end t =
  [
    m "setup_s" "s"
      (Util.median (List.map (fun r -> Util.seconds (total (fun m -> m.Runner.setup_ns) r)) t.rounds));
    m "wall_s" "s" (best wall_ns t);
    m "applied_ops_per_s" "ops/s" (fi (count (first t) "applied") /. best sim_ns t);
    m "peak_heap_mb" "MB" (fi t.peak_heap_words *. word_bytes /. 1e6);
  ]

let pct p xs =
  let s = Esr_util.Stats.create () in
  List.iter (Esr_util.Stats.add s) xs;
  Esr_util.Stats.percentile s p

let untraced_layers t =
  let r = first t in
  let c k = fi (count r k) in
  let all_runs = r.runs in
  let pooled f = List.concat_map f all_runs in
  let max_count k =
    List.fold_left (fun a m -> Stdlib.max a (List.assoc k m.Runner.counts)) 0 all_runs
  in
  let served = c "served" in
  let sites_x_methods = fi (t.workload.W.sites * List.length t.workload.W.methods) in
  [
    m "sim.engine.events" "count" (c "events");
    m "sim.engine.events_per_op" "events/op" (ratio (c "events") (c "applied"));
    m "sim.engine.cancelled_frac" "ratio" (ratio (c "cancelled") (c "scheduled"));
    m "sim.engine.alloc_bytes_per_event" "B/event"
      (ratio
         (List.fold_left (fun a m -> a +. m.Runner.minor_words) 0.0 all_runs *. word_bytes)
         (c "events"));
    m "sim.net.msgs_sent" "count" (c "msgs_sent");
    m "sim.net.msgs_per_op" "msgs/op" (ratio (c "msgs_sent") (c "applied"));
    m "sim.net.dropped_frac" "ratio" (ratio (c "msgs_dropped") (c "msgs_sent"));
    m "squeue.enqueued" "count" (c "squeue_enqueued");
    m "squeue.retransmits_per_enqueued" "ratio"
      (ratio (c "squeue_retransmits") (c "squeue_enqueued"));
    m "squeue.dups_suppressed" "count" (c "squeue_dups");
    m "replica.flush_rounds" "count" (c "flush_rounds");
    m "replica.applied_ops" "count" (c "applied");
    m "store.words_per_site" "words" (ratio (c "store_words") sites_x_methods);
    m "store.log_entries_final" "count" (c "log_entries");
    m "store.wal_high_water" "count" (c "wal_high_water");
    m "cc.lock_waits" "count" (c "lock_waits");
    m "cc.aborts" "count" (c "aborts");
    m "replica.checkpoint.cuts" "count" (c "cuts");
    m "replica.checkpoint.folded" "count" (c "folded");
    m "replica.checkpoint.max_tail" "count" (fi (max_count "max_tail"));
    m "replica.recovery.replays" "count" (c "replays");
    m "obs.audit.violations" "count" (c "audit_violations");
    m "gc.alloc_mb" "MB" (r.gc.alloc_words *. word_bytes /. 1e6);
    m "gc.minor_collections" "count" (fi r.gc.minor_collections);
    m "gc.major_collections" "count" (fi r.gc.major_collections);
    m "gc.promoted_mb" "MB" (r.gc.promoted_words *. word_bytes /. 1e6);
    m "workload.gen_s" "s" t.gen_s;
    m "model.commit_vms_p50" "vms" (pct 50.0 (pooled (fun m -> m.Runner.commit_vms)));
    m "model.commit_vms_p99" "vms" (pct 99.0 (pooled (fun m -> m.Runner.commit_vms)));
    m "model.query_vms_p99" "vms" (pct 99.0 (pooled (fun m -> m.Runner.query_vms)));
    m "model.charged_mean" "units" (ratio (c "charged") served);
    m "model.fallback_frac" "ratio" (ratio (c "fallbacks") served);
    m "model.failed_attempts_frac" "ratio"
      (ratio (c "rejected" +. c "degraded") (c "update_attempts" +. c "query_attempts"));
  ]

let traced_layers t (r, (probe : Runner.probe)) =
  let phase p =
    List.fold_left
      (fun (a : Prof.agg) m ->
        let b = List.assoc p m.Runner.phases in
        {
          Prof.count = a.Prof.count + b.Prof.count;
          seconds = a.Prof.seconds +. b.Prof.seconds;
          alloc_bytes = a.Prof.alloc_bytes +. b.Prof.alloc_bytes;
        })
      { Prof.count = 0; seconds = 0.0; alloc_bytes = 0.0 }
      r.runs
  in
  let incl p = (phase p).Prof.seconds in
  let bytes_per p = let a = phase p in ratio a.Prof.alloc_bytes (fi a.Prof.count) in
  let secs f = Util.seconds (total f r) in
  [
    m "sim.engine.step_ns_p50" "ns" (fi (Ibuf.percentile probe.Runner.steps 50.0));
    m "sim.engine.step_ns_p999" "ns" (fi (Ibuf.percentile probe.Runner.steps 99.9));
    m "sim.engine.dispatch_s_incl" "s" (incl Prof.Engine_dispatch);
    m "sim.net.delivery_s_incl" "s" (incl Prof.Net_delivery);
    m "sim.net.delivery_bytes_per_msg" "B/msg" (bytes_per Prof.Net_delivery);
    m "replica.create_s" "s" (secs (fun m -> m.Runner.create_ns));
    m "replica.submit_us_p50" "us" (fi (Ibuf.percentile probe.Runner.submits 50.0) /. 1e3);
    m "replica.submit_us_p99" "us" (fi (Ibuf.percentile probe.Runner.submits 99.0) /. 1e3);
    m "replica.apply_s_incl" "s" (incl Prof.Apply);
    m "replica.apply_bytes_per_op" "B/op" (bytes_per Prof.Apply);
    m "replica.propagate_s_incl" "s" (incl Prof.Propagate);
    m "replica.wal_append_s_incl" "s" (incl Prof.Wal_append);
    m "replica.settle_s" "s" (secs (fun m -> m.Runner.settle_ns));
    m "replica.converged_s" "s" (secs (fun m -> m.Runner.converged_ns));
    m "replica.replay_s_incl" "s" (incl Prof.Replay);
    m "obs.trace.events" "count" (fi probe.Runner.trace_events);
    m "obs.audit.finish_s" "s" (secs (fun m -> m.Runner.finish_ns));
    m "obs.instrumented_overhead" "ratio" (ratio (secs wall_ns) (best wall_ns t));
  ]

let per_layer t =
  untraced_layers t
  @ match t.traced with Some x -> traced_layers t x | None -> []
