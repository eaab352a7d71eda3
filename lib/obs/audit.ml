(* Streaming runtime-verification auditor over the trace vocabulary.

   The auditor consumes records one at a time — as a live tap on the
   run's trace sink ({!Trace.attach}) or replayed from a JSONL dump —
   and checks the paper's guarantees online, with O(live state) memory:
   per-channel delivery state, per-site order cursors, open query
   windows, and the down-site set.  Each broken invariant produces a
   typed {!violation} pinning the first offending event; a clean run
   yields a certificate ({!ok}) plus the per-query epsilon ledger.

   A dump that lost its prefix to ring eviction (leading [Trace_meta])
   switches the auditor into {e relaxed} mode: per-event checks that
   depend on history before the first surviving record (dense sequence
   baselines, overlap reconstruction, crash pairing, end-of-run
   completeness) are disabled rather than reported as false positives,
   and the certificate is marked partial. *)

type kind = Delivery | Ordering | Epsilon | Crash | Checkpoint | Convergence

let kind_to_string = function
  | Delivery -> "delivery"
  | Ordering -> "ordering"
  | Epsilon -> "epsilon"
  | Crash -> "crash"
  | Checkpoint -> "checkpoint"
  | Convergence -> "convergence"

let kind_of_string = function
  | "delivery" -> Some Delivery
  | "ordering" -> Some Ordering
  | "epsilon" -> Some Epsilon
  | "crash" -> Some Crash
  | "checkpoint" -> Some Checkpoint
  | "convergence" -> Some Convergence
  | _ -> None

type violation = {
  v_kind : kind;
  v_invariant : string;  (* stable slug, e.g. "squeue-double-delivery" *)
  v_detail : string;
  v_time : float;  (* virtual time of the pinned event *)
  v_event : string;  (* {!Trace.type_name} of the pinned event *)
}

type entry = {
  l_q : int;
  l_site : int;
  l_keys : int;
  l_epsilon : int option;
  l_charged : int;
  l_forced : int;
  l_consistent : bool;
  l_latency : float;
  l_reconstructed : int option;
      (* overlap with concurrent update ETs rebuilt from the query's
         window events; [Some] only for optimistically-served ORDUP
         queries whose window was fully observed *)
  l_oracle : float option;  (* workload-oracle distance, when noted *)
}

type summary = {
  s_events : int;
  s_dropped : int;  (* ring evictions announced by the leading meta *)
  s_queries : int;
  s_bounded : int;  (* served with a finite epsilon *)
  s_at_bound : int;  (* charged = epsilon exactly *)
  s_charged_total : int;
  s_windows : int;
  s_windows_exact : int;  (* `Ok closes whose charge matched the model *)
  s_max_replay : int;
  s_max_crash_log : int;
  s_crashes : int;
  s_cuts : int;
  s_converged : bool option;  (* last [Converged] event, if any *)
}

type report = {
  label : string;
  violations : violation list;  (* chronological; head pins the first *)
  ledger : entry list;  (* by query id *)
  summary : summary;
}

let ok r = r.violations = []
let partial r = r.summary.s_dropped > 0

(* --- live state --- *)

(* Sender/receiver view of one (src,dst) stable-queue channel.  As in the
   stable queue's own receiver, every seq in [0, c_mark) has been handed
   up and [c_above] holds the other seqs handed up (out of order past
   the mark), so delivery state grows with reordering, not history. *)
type chan = {
  mutable c_sent : int;  (* next expected dense send seq *)
  mutable c_base : int;  (* first seq observed (relaxed baseline) *)
  mutable c_known : bool;
  mutable c_mark : int;
  c_above : (int, unit) Hashtbl.t;
}

type window = {
  win_w : int;
  win_site : int;
  win_point : int;
  win_keys : string list;
  mutable win_model : int;  (* reconstructed overlap: missing + applies *)
  mutable win_crashed : bool;  (* the site crashed while it was open *)
}

type closed_window = {
  cl_time : float;
  cl_charged : int;
  cl_model : int option;  (* [Some] for `Ok closes in strict mode *)
}

(* A record of one float field is stored flat, so advancing the clock
   allocates nothing; a float field of [t] would be boxed on each write. *)
type clock = { mutable last_time : float }

type pending_query = {
  pq_q : int;
  pq_site : int;
  pq_keys : int;
  pq_eps : int option;
}

type t = {
  label : string;
  mutable n_events : int;
  mutable dropped : int;
  mutable relaxed : bool;
  clock : clock;
  mutable violations : violation list;  (* reversed *)
  mutable n_violations : int;
  chans : (int, chan) Hashtbl.t;  (* by [chan_key] *)
  applied_next : (int, int) Hashtbl.t;  (* site -> next expected ticket *)
  et_keys : (int, string list) Hashtbl.t;
  open_windows : (int, window) Hashtbl.t;  (* by window id *)
  last_closed : (int, closed_window) Hashtbl.t;  (* by site *)
  down : (int, unit) Hashtbl.t;
  mutable expect_drop : (int * int * string * float) option;
      (* a crashed-src send must be followed by its silent drop *)
  crash_log : (int, int) Hashtbl.t;  (* site -> log length at crash *)
  volatile_seen : (int, unit) Hashtbl.t;  (* this down-window dropped *)
  pending_queries : (int, pending_query) Hashtbl.t;
  oracle : (int, float) Hashtbl.t;
  mutable ledger_rev : entry list;
  mutable n_update_begin : int;
  mutable n_update_done : int;  (* committed + rejected *)
  mutable n_query_begin : int;
  mutable n_query_served : int;
  mutable n_bounded : int;
  mutable n_at_bound : int;
  mutable charged_total : int;
  mutable n_windows : int;
  mutable n_windows_exact : int;
  mutable n_crashes : int;
  mutable n_cuts : int;
  mutable max_replay : int;
  mutable max_crash_log : int;
  mutable converged : bool option;
  mutable metrics : Metrics.t option;
  mutable h_charged : Metrics.histogram option;
  mutable h_headroom : Metrics.histogram option;
}

let create ?(label = "run") () =
  {
    label;
    n_events = 0;
    dropped = 0;
    relaxed = false;
    clock = { last_time = neg_infinity };
    violations = [];
    n_violations = 0;
    chans = Hashtbl.create 64;
    applied_next = Hashtbl.create 16;
    et_keys = Hashtbl.create 256;
    open_windows = Hashtbl.create 16;
    last_closed = Hashtbl.create 16;
    down = Hashtbl.create 8;
    expect_drop = None;
    crash_log = Hashtbl.create 8;
    volatile_seen = Hashtbl.create 8;
    pending_queries = Hashtbl.create 64;
    oracle = Hashtbl.create 64;
    ledger_rev = [];
    n_update_begin = 0;
    n_update_done = 0;
    n_query_begin = 0;
    n_query_served = 0;
    n_bounded = 0;
    n_at_bound = 0;
    charged_total = 0;
    n_windows = 0;
    n_windows_exact = 0;
    n_crashes = 0;
    n_cuts = 0;
    max_replay = 0;
    max_crash_log = 0;
    converged = None;
    metrics = None;
    h_charged = None;
    h_headroom = None;
  }

(* Register the [audit/] instrument group.  Only called when auditing is
   on, so an unaudited run's metrics snapshot — and every series dump —
   is byte-identical to before this group existed (same pattern as the
   conditional [ckpt/] gauges). *)
let bind_metrics t (m : Metrics.t) =
  t.metrics <- Some m;
  Metrics.gauge_fn m ~group:"audit" "violations" (fun () ->
      float_of_int t.n_violations);
  Metrics.gauge_fn m ~group:"audit" "ledger_entries" (fun () ->
      float_of_int t.n_query_served);
  Metrics.gauge_fn m ~group:"audit" "windows_open" (fun () ->
      float_of_int (Hashtbl.length t.open_windows));
  Metrics.gauge_fn m ~group:"audit" "windows_exact" (fun () ->
      float_of_int t.n_windows_exact);
  Metrics.gauge_fn m ~group:"audit" "charged_total" (fun () ->
      float_of_int t.charged_total);
  t.h_charged <-
    Some
      (Metrics.histogram m ~group:"audit"
         ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ]
         "charged");
  t.h_headroom <-
    Some
      (Metrics.histogram m ~group:"audit"
         ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ]
         "headroom")

let violate t ~kind ~invariant ~time ~event detail =
  t.n_violations <- t.n_violations + 1;
  t.violations <-
    {
      v_kind = kind;
      v_invariant = invariant;
      v_detail = detail;
      v_time = time;
      v_event = event;
    }
    :: t.violations

(* One int per (src, dst) channel, so a lookup allocates nothing.  Site
   ids fit in 31 bits ([Net] caps them at 4,096), and keys sort by src,
   then dst. *)
let chan_key ~src ~dst = (src lsl 31) lor dst

let chan t ~src ~dst =
  let key = chan_key ~src ~dst in
  match Hashtbl.find t.chans key with
  | c -> c
  | exception Not_found ->
      let c =
        {
          c_sent = 0;
          c_base = 0;
          c_known = false;
          c_mark = 0;
          c_above = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.chans key c;
      c

let overlaps keys keys' = List.exists (fun k -> List.mem k keys') keys

(* A violation pinned on [r].  A top-level function rather than a closure
   over [r] in [feed], which would be allocated for every event. *)
let flag t (r : Trace.record) ~kind ~invariant detail =
  violate t ~kind ~invariant ~time:r.Trace.time
    ~event:(Trace.type_name r.Trace.ev) detail

let feed t (r : Trace.record) =
  let { Trace.time; ev } = r in
  t.n_events <- t.n_events + 1;
  (* Virtual time never runs backwards, whatever the event. *)
  if time < t.clock.last_time -. 1e-9 then
    flag t r ~kind:Ordering ~invariant:"time-regression"
      (Printf.sprintf "event at t=%.3f after t=%.3f" time t.clock.last_time);
  if time > t.clock.last_time then t.clock.last_time <- time;
  (* (d) a send from a crashed site must be silently dropped by the
     network: the matching [Msg_dropped Crashed_src] directly follows. *)
  (match t.expect_drop with
  | None -> ()
  | Some (src, dst, cls, sent_at) -> (
      t.expect_drop <- None;
      match ev with
      | Trace.Msg_dropped { src = s; dst = d; cls = c; reason = Trace.Crashed_src }
        when s = src && d = dst && String.equal c cls ->
          ()
      | _ ->
          violate t ~kind:Crash ~invariant:"send-from-crashed-site"
            ~time:sent_at ~event:"msg_sent"
            (Printf.sprintf
               "site %d sent %S to %d while crashed and the network did not \
                drop it"
               src cls dst)));
  match ev with
  | Trace.Trace_meta { dropped } ->
      t.dropped <- t.dropped + dropped;
      t.relaxed <- true
  | Trace.Msg_sent { src; dst; cls } ->
      if (not t.relaxed) && Hashtbl.mem t.down src then
        t.expect_drop <- Some (src, dst, cls, time)
  | Trace.Msg_dropped { src; dst = _; cls = _; reason } ->
      if
        (not t.relaxed) && reason = Trace.Crashed_src
        && not (Hashtbl.mem t.down src)
      then
        flag t r ~kind:Crash ~invariant:"spurious-crashed-src-drop"
          (Printf.sprintf "drop blamed on crashed src %d, which is up" src)
  | Trace.Msg_duplicated _ | Trace.Msg_delivered _ -> ()
  | Trace.Squeue_send { src; dst; seq } ->
      (* Journaling is a write to stable storage, so it is legal even at
         a crashed site (2PC/COMPE journal presumed-abort decisions in
         [drop]); the crash discipline audited here is the network's
         — physical transmissions from a down site must be dropped. *)
      let c = chan t ~src ~dst in
      if not c.c_known then begin
        c.c_known <- true;
        if t.relaxed then c.c_base <- seq
        else if seq <> 0 then
          flag t r ~kind:Delivery ~invariant:"squeue-journal-gap"
            (Printf.sprintf "channel %d->%d starts at seq %d, expected 0" src
               dst seq);
        c.c_sent <- seq + 1
      end
      else if seq <> c.c_sent then begin
        flag t r ~kind:Delivery ~invariant:"squeue-journal-gap"
          (Printf.sprintf "channel %d->%d journaled seq %d, expected %d" src
             dst seq c.c_sent);
        c.c_sent <- Stdlib.max c.c_sent (seq + 1)
      end
      else c.c_sent <- seq + 1
  | Trace.Squeue_delivered { src; dst; seq } ->
      let c = chan t ~src ~dst in
      if (not t.relaxed) && Hashtbl.mem t.down dst then
        flag t r ~kind:Crash ~invariant:"squeue-deliver-while-down"
          (Printf.sprintf "channel %d->%d delivered seq %d at a crashed site"
             src dst seq);
      if (not t.relaxed) && (seq >= c.c_sent || (c.c_known && seq < c.c_base))
      then
        flag t r ~kind:Delivery ~invariant:"squeue-delivered-unsent"
          (Printf.sprintf "channel %d->%d delivered seq %d, journal at %d" src
             dst seq c.c_sent);
      if (0 <= seq && seq < c.c_mark) || Hashtbl.mem c.c_above seq then
        flag t r ~kind:Delivery ~invariant:"squeue-double-delivery"
          (Printf.sprintf "channel %d->%d handed seq %d up twice" src dst seq)
      else if seq = c.c_mark then begin
        c.c_mark <- seq + 1;
        (* Fold in the seqs the gap was holding back. *)
        while
          Hashtbl.length c.c_above > 0 && Hashtbl.mem c.c_above c.c_mark
        do
          Hashtbl.remove c.c_above c.c_mark;
          c.c_mark <- c.c_mark + 1
        done
      end
      else Hashtbl.replace c.c_above seq ()
  | Trace.Squeue_dup { src; dst; seq } ->
      let c = chan t ~src ~dst in
      if (not t.relaxed) && seq >= c.c_sent then
        flag t r ~kind:Delivery ~invariant:"squeue-dup-unsent"
          (Printf.sprintf "channel %d->%d suppressed unsent seq %d" src dst seq)
  | Trace.Partition_event _ | Trace.Heal -> ()
  | Trace.Crash { site } ->
      if Hashtbl.mem t.down site then
        flag t r ~kind:Crash ~invariant:"double-crash"
          (Printf.sprintf "site %d crashed while already down" site)
      else begin
        t.n_crashes <- t.n_crashes + 1;
        Hashtbl.replace t.down site ();
        Hashtbl.remove t.volatile_seen site;
        Hashtbl.iter
          (fun _ w -> if w.win_site = site then w.win_crashed <- true)
          t.open_windows
      end
  | Trace.Recover { site } ->
      if not (Hashtbl.mem t.down site) then begin
        if not t.relaxed then
          flag t r ~kind:Crash ~invariant:"recover-while-up"
            (Printf.sprintf "site %d recovered without a preceding crash" site)
      end
      else begin
        if (not t.relaxed) && not (Hashtbl.mem t.volatile_seen site) then
          flag t r ~kind:Crash ~invariant:"crash-without-volatile-drop"
            (Printf.sprintf
               "site %d finished a down-window without accounting for its \
                volatile state"
               site);
        Hashtbl.remove t.down site;
        Hashtbl.remove t.volatile_seen site
      end
  | Trace.Volatile_dropped { site; log; _ } ->
      if (not t.relaxed) && not (Hashtbl.mem t.down site) then
        flag t r ~kind:Crash ~invariant:"volatile-drop-while-up"
          (Printf.sprintf "site %d dropped volatile state while up" site);
      Hashtbl.replace t.volatile_seen site ();
      Hashtbl.replace t.crash_log site log;
      if log > t.max_crash_log then t.max_crash_log <- log
  | Trace.Recovery_replay { site; n_actions } ->
      if n_actions > t.max_replay then t.max_replay <- n_actions;
      (match Hashtbl.find_opt t.crash_log site with
      | Some expected ->
          Hashtbl.remove t.crash_log site;
          if n_actions <> expected then
            flag t r ~kind:Crash ~invariant:"incomplete-replay"
              (Printf.sprintf
                 "site %d replayed %d log actions; the crash recorded %d" site
                 n_actions expected)
      | None ->
          if not t.relaxed then
            flag t r ~kind:Crash ~invariant:"replay-without-crash"
              (Printf.sprintf "site %d replayed %d actions with no crash log"
                 site n_actions))
  | Trace.Checkpoint_cut { site; folded; reclaimed = _ } ->
      t.n_cuts <- t.n_cuts + 1;
      if Hashtbl.mem t.down site then
        flag t r ~kind:Checkpoint ~invariant:"cut-at-down-site"
          (Printf.sprintf "site %d took a cut (folded %d) while crashed" site
             folded)
  | Trace.Update_begin _ -> t.n_update_begin <- t.n_update_begin + 1
  | Trace.Update_committed _ | Trace.Update_rejected _ ->
      t.n_update_done <- t.n_update_done + 1
  | Trace.Mset_enqueued { et; keys; _ } -> Hashtbl.replace t.et_keys et keys
  | Trace.Mset_applied { et; site; order; n_ops = _ } -> (
      if (not t.relaxed) && Hashtbl.mem t.down site then
        flag t r ~kind:Crash ~invariant:"apply-at-down-site"
          (Printf.sprintf "ET %d applied at crashed site %d" et site);
      match order with
      | None -> ()
      | Some o ->
          (* (b) each site executes its ticket stream dense and in order
             (under sharding the stream is per-site; the check is the
             same because tickets are assigned per interested site). *)
          (match Hashtbl.find_opt t.applied_next site with
          | None ->
              if t.relaxed then Hashtbl.replace t.applied_next site (o + 1)
              else if o <> 1 then begin
                flag t r ~kind:Ordering ~invariant:"ordup-stream-gap"
                  (Printf.sprintf "site %d started its stream at ticket %d"
                     site o);
                Hashtbl.replace t.applied_next site (o + 1)
              end
              else Hashtbl.replace t.applied_next site 2
          | Some next ->
              if o > next then begin
                flag t r ~kind:Ordering ~invariant:"ordup-stream-gap"
                  (Printf.sprintf
                     "site %d executed ticket %d, expected %d: gap of %d" site
                     o next (o - next));
                Hashtbl.replace t.applied_next site (o + 1)
              end
              else if o < next then
                flag t r ~kind:Ordering ~invariant:"ordup-stream-replay"
                  (Printf.sprintf
                     "site %d re-executed ticket %d (stream already at %d)"
                     site o next)
              else Hashtbl.replace t.applied_next site (o + 1));
          (* (c) charge reconstruction: the apply lands in every open
             window it interleaves — ordered past the query's point and
             touching its read set. *)
          let keys =
            Option.value ~default:[] (Hashtbl.find_opt t.et_keys et)
          in
          Hashtbl.iter
            (fun _ w ->
              if w.win_site = site && o > w.win_point && overlaps keys w.win_keys
              then w.win_model <- w.win_model + 1)
            t.open_windows)
  | Trace.Compensation_fired _ -> ()
  | Trace.Query_begin { q; site; n_keys; epsilon } ->
      t.n_query_begin <- t.n_query_begin + 1;
      Hashtbl.replace t.pending_queries q
        { pq_q = q; pq_site = site; pq_keys = n_keys; pq_eps = epsilon }
  | Trace.Query_window { w; site; point; missing; keys } ->
      t.n_windows <- t.n_windows + 1;
      if (not t.relaxed) && Hashtbl.mem t.down site then
        flag t r ~kind:Crash ~invariant:"window-at-down-site"
          (Printf.sprintf "query window %d opened at crashed site %d" w site);
      if not t.relaxed then begin
        (* The lump charge is exactly the issued-but-unexecuted gap at
           the query's serialization point. *)
        let applied =
          match Hashtbl.find_opt t.applied_next site with
          | Some next -> next - 1
          | None -> 0
        in
        let expected = Stdlib.max 0 (point - applied) in
        if missing <> expected then
          flag t r ~kind:Epsilon ~invariant:"window-missing-mismatch"
            (Printf.sprintf
               "window %d at site %d charged %d missing updates; point %d \
                less %d applied gives %d"
               w site missing point applied expected)
      end;
      if Hashtbl.mem t.open_windows w then
        flag t r ~kind:Epsilon ~invariant:"window-reopened"
          (Printf.sprintf "window id %d opened twice" w)
      else
        Hashtbl.replace t.open_windows w
          {
            win_w = w;
            win_site = site;
            win_point = point;
            win_keys = keys;
            win_model = missing;
            win_crashed = false;
          }
  | Trace.Query_window_closed { w; site; charged; outcome } -> (
      match Hashtbl.find_opt t.open_windows w with
      | None ->
          if not t.relaxed then
            flag t r ~kind:Epsilon ~invariant:"window-close-unopened"
              (Printf.sprintf "window id %d closed but never opened" w)
      | Some win ->
          Hashtbl.remove t.open_windows w;
          let model =
            if t.relaxed then None
            else begin
              (match outcome with
              | `Ok ->
                  if charged = win.win_model then
                    t.n_windows_exact <- t.n_windows_exact + 1
                  else
                    flag t r ~kind:Epsilon ~invariant:"charge-overlap-mismatch"
                      (Printf.sprintf
                         "window %d at site %d charged %d; reconstructed \
                          overlap with concurrent update ETs is %d"
                         w site charged win.win_model)
              | `Fallback ->
                  (* Charging stopped at the first refusal, so the model
                     (which kept counting) is an upper bound. *)
                  if charged > win.win_model then
                    flag t r ~kind:Epsilon ~invariant:"charge-overlap-mismatch"
                      (Printf.sprintf
                         "window %d fell back after charging %d, above the \
                          reconstructed overlap %d"
                         w charged win.win_model)
              | `Killed -> ());
              match outcome with `Ok -> Some win.win_model | _ -> None
            end
          in
          Hashtbl.replace t.last_closed site
            { cl_time = time; cl_charged = charged; cl_model = model })
  | Trace.Query_served
      { q; site; charged; forced; epsilon; consistent_path; latency } ->
      t.n_query_served <- t.n_query_served + 1;
      t.charged_total <- t.charged_total + charged;
      (* (c) the paper's bound, checked per served query.  Backward
         methods force-charge compensation contamination past the limit
         (the §4.2 hazard) — those units are declared in [forced], and
         only the voluntary remainder is held to epsilon. *)
      (let voluntary = charged - forced in
       if forced < 0 || voluntary < 0 then
         flag t r ~kind:Epsilon ~invariant:"forced-charge-malformed"
           (Printf.sprintf "query %d declares %d forced of %d charged units"
              q forced charged);
       match epsilon with
       | Some e ->
           t.n_bounded <- t.n_bounded + 1;
           if voluntary = e then t.n_at_bound <- t.n_at_bound + 1;
           if voluntary > e then
             flag t r ~kind:Epsilon ~invariant:"epsilon-exceeded"
               (Printf.sprintf
                  "query %d charged %d (%d forced) over its epsilon %d" q
                  charged forced e);
           Option.iter
             (fun h -> Metrics.observe h (float_of_int (e - voluntary)))
             t.h_headroom
       | None -> ());
      Option.iter (fun h -> Metrics.observe h (float_of_int charged)) t.h_charged;
      (* Pair the harness-level lifecycle with the method-level window
         closed in the same instant to fill the ledger's reconstruction
         column. *)
      let reconstructed =
        match Hashtbl.find_opt t.last_closed site with
        | Some cl when cl.cl_time = time && cl.cl_charged = charged ->
            Hashtbl.remove t.last_closed site;
            cl.cl_model
        | _ -> None
      in
      (match Hashtbl.find_opt t.pending_queries q with
      | Some pq ->
          Hashtbl.remove t.pending_queries q;
          t.ledger_rev <-
            {
              l_q = q;
              l_site = site;
              l_keys = pq.pq_keys;
              l_epsilon = epsilon;
              l_charged = charged;
              l_forced = forced;
              l_consistent = consistent_path;
              l_latency = latency;
              l_reconstructed = reconstructed;
              l_oracle = None;
            }
            :: t.ledger_rev
      | None ->
          if not t.relaxed then
            flag t r ~kind:Convergence ~invariant:"served-without-begin"
              (Printf.sprintf "query %d served but never began" q))
  | Trace.Flush_round _ -> ()
  | Trace.Converged { ok } ->
      t.converged <- Some ok;
      if ok && (not t.relaxed) && Hashtbl.length t.down > 0 then
        flag t r ~kind:Convergence ~invariant:"converged-while-down"
          (Printf.sprintf "convergence claimed with %d sites still crashed"
             (Hashtbl.length t.down))

let note_oracle t ~q ~distance = Hashtbl.replace t.oracle q distance

(* [tbl]'s bindings in key order, so verdicts do not follow the table's. *)
let sorted tbl =
  List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq tbl))

let finish t =
  let strict = not t.relaxed in
  let end_violation ~kind ~invariant detail =
    violate t ~kind ~invariant ~time:t.clock.last_time ~event:"(end of trace)"
      detail
  in
  let settled = t.converged = Some true && Hashtbl.length t.down = 0 in
  (* (a) completeness: once the run claims convergence with every site
     up, every journaled message has been handed up exactly once. *)
  if strict && settled then
    List.iter
      (fun (key, c) ->
        let delivered = c.c_mark + Hashtbl.length c.c_above in
        if delivered <> c.c_sent then
          end_violation ~kind:Delivery ~invariant:"squeue-undelivered"
            (Printf.sprintf "channel %d->%d delivered %d of %d journaled"
               (key lsr 31) (key land 0x7FFF_FFFF) delivered c.c_sent))
      (sorted t.chans);
  (* (f) lifecycle completeness under the convergence claim. *)
  if strict && settled then begin
    if t.n_update_begin <> t.n_update_done then
      end_violation ~kind:Convergence ~invariant:"updates-unresolved"
        (Printf.sprintf "%d update ETs began, %d resolved" t.n_update_begin
           t.n_update_done);
    if t.n_query_begin <> t.n_query_served then
      end_violation ~kind:Convergence ~invariant:"queries-unserved"
        (Printf.sprintf "%d queries began, %d served" t.n_query_begin
           t.n_query_served)
  end;
  if strict then begin
    List.iter
      (fun (w, win) ->
        end_violation ~kind:Epsilon ~invariant:"window-never-closed"
          (Printf.sprintf "query window %d at site %d%s never closed" w
             win.win_site
             (if win.win_crashed then " (site crashed)" else "")))
      (sorted t.open_windows);
    List.iter
      (fun (site, log) ->
        if not (Hashtbl.mem t.down site) then
          end_violation ~kind:Crash ~invariant:"recovery-without-replay"
            (Printf.sprintf
               "site %d recovered but never replayed its %d-action log" site
               log))
      (sorted t.crash_log)
  end;
  if t.converged = Some false then
    end_violation ~kind:Convergence ~invariant:"diverged-at-quiescence"
      "replicas report divergence at the end of the run";
  (* The live registry agrees with the trace-level certificate. *)
  (match t.metrics with
  | Some m when strict && t.converged = Some true -> (
      match List.assoc_opt "divergent_sites" (Metrics.alist ~group:"harness" m) with
      | Some d when d > 0.0 ->
          end_violation ~kind:Convergence ~invariant:"divergent-sites-metric"
            (Printf.sprintf "harness/divergent_sites gauge reads %g" d)
      | Some _ | None -> ())
  | _ -> ());
  let ledger =
    List.rev_map
      (fun e -> { e with l_oracle = Hashtbl.find_opt t.oracle e.l_q })
      t.ledger_rev
  in
  {
    label = t.label;
    violations = List.rev t.violations;
    ledger;
    summary =
      {
        s_events = t.n_events;
        s_dropped = t.dropped;
        s_queries = t.n_query_served;
        s_bounded = t.n_bounded;
        s_at_bound = t.n_at_bound;
        s_charged_total = t.charged_total;
        s_windows = t.n_windows;
        s_windows_exact = t.n_windows_exact;
        s_max_replay = t.max_replay;
        s_max_crash_log = t.max_crash_log;
        s_crashes = t.n_crashes;
        s_cuts = t.n_cuts;
        s_converged = t.converged;
      };
  }

let audit_records ?label records =
  let t = create ?label () in
  List.iter (feed t) records;
  finish t

(* --- JSON certificate ([esr-audit/1]) --- *)

let schema = "esr-audit/1"

let report_to_json (r : report) =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_char b '"';
    Esr_util.Json.buf_add_escaped b s;
    Buffer.add_char b '"'
  in
  let num f = Buffer.add_string b (Esr_util.Json.float_repr f) in
  let int i = Buffer.add_string b (string_of_int i) in
  let int_opt = function
    | None -> Buffer.add_string b "null"
    | Some i -> int i
  in
  let bool_opt = function
    | None -> Buffer.add_string b "null"
    | Some v -> Buffer.add_string b (if v then "true" else "false")
  in
  Buffer.add_string b "{\"schema\":";
  str schema;
  Buffer.add_string b ",\"label\":";
  str r.label;
  Buffer.add_string b ",\"ok\":";
  Buffer.add_string b (if ok r then "true" else "false");
  Buffer.add_string b ",\"events\":";
  int r.summary.s_events;
  Buffer.add_string b ",\"dropped\":";
  int r.summary.s_dropped;
  Buffer.add_string b ",\"violations\":[";
  List.iteri
    (fun i vi ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"kind\":";
      str (kind_to_string vi.v_kind);
      Buffer.add_string b ",\"invariant\":";
      str vi.v_invariant;
      Buffer.add_string b ",\"detail\":";
      str vi.v_detail;
      Buffer.add_string b ",\"ts\":";
      num vi.v_time;
      Buffer.add_string b ",\"event\":";
      str vi.v_event;
      Buffer.add_char b '}')
    r.violations;
  Buffer.add_string b "],\"summary\":{\"queries\":";
  int r.summary.s_queries;
  Buffer.add_string b ",\"bounded\":";
  int r.summary.s_bounded;
  Buffer.add_string b ",\"at_bound\":";
  int r.summary.s_at_bound;
  Buffer.add_string b ",\"charged_total\":";
  int r.summary.s_charged_total;
  Buffer.add_string b ",\"windows\":";
  int r.summary.s_windows;
  Buffer.add_string b ",\"windows_exact\":";
  int r.summary.s_windows_exact;
  Buffer.add_string b ",\"max_replay\":";
  int r.summary.s_max_replay;
  Buffer.add_string b ",\"max_crash_log\":";
  int r.summary.s_max_crash_log;
  Buffer.add_string b ",\"crashes\":";
  int r.summary.s_crashes;
  Buffer.add_string b ",\"cuts\":";
  int r.summary.s_cuts;
  Buffer.add_string b ",\"converged\":";
  bool_opt r.summary.s_converged;
  Buffer.add_string b "},\"ledger\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"q\":";
      int e.l_q;
      Buffer.add_string b ",\"site\":";
      int e.l_site;
      Buffer.add_string b ",\"keys\":";
      int e.l_keys;
      Buffer.add_string b ",\"epsilon\":";
      int_opt e.l_epsilon;
      Buffer.add_string b ",\"charged\":";
      int e.l_charged;
      Buffer.add_string b ",\"forced\":";
      int e.l_forced;
      Buffer.add_string b ",\"consistent\":";
      Buffer.add_string b (if e.l_consistent then "true" else "false");
      Buffer.add_string b ",\"latency\":";
      num e.l_latency;
      Buffer.add_string b ",\"reconstructed\":";
      int_opt e.l_reconstructed;
      Buffer.add_string b ",\"oracle\":";
      (match e.l_oracle with
      | None -> Buffer.add_string b "null"
      | Some d -> num d);
      Buffer.add_char b '}')
    r.ledger;
  Buffer.add_string b "]}";
  Buffer.contents b

module Json = Esr_util.Json

exception Parse of string

let report_of_json text =
  match Json.parse_exn text with
  | exception Json.Parse_error msg -> Error msg
  | Json.Obj fields -> (
      let find name = List.assoc_opt name fields in
      let get_obj name fields' =
        match List.assoc_opt name fields' with
        | Some (Json.Obj o) -> o
        | _ -> raise (Parse ("missing object field " ^ name))
      in
      let get_arr name fields' =
        match List.assoc_opt name fields' with
        | Some (Json.Arr items) -> items
        | _ -> raise (Parse ("missing array field " ^ name))
      in
      let g_int fields' name =
        match List.assoc_opt name fields' with
        | Some (Json.Num v) -> int_of_float v
        | _ -> raise (Parse ("missing int field " ^ name))
      in
      let g_num fields' name =
        match List.assoc_opt name fields' with
        | Some (Json.Num v) -> v
        | _ -> raise (Parse ("missing number field " ^ name))
      in
      let g_str fields' name =
        match List.assoc_opt name fields' with
        | Some (Json.Str v) -> v
        | _ -> raise (Parse ("missing string field " ^ name))
      in
      let g_bool fields' name =
        match List.assoc_opt name fields' with
        | Some (Json.Bool v) -> v
        | _ -> raise (Parse ("missing bool field " ^ name))
      in
      let g_int_opt fields' name =
        match List.assoc_opt name fields' with
        | Some Json.Null -> None
        | Some (Json.Num v) -> Some (int_of_float v)
        | _ -> raise (Parse ("missing nullable int field " ^ name))
      in
      try
        (match find "schema" with
        | Some (Json.Str s) when String.equal s schema -> ()
        | _ -> raise (Parse "not an esr-audit/1 document"));
        let violations =
          List.map
            (function
              | Json.Obj f ->
                  let kind =
                    match kind_of_string (g_str f "kind") with
                    | Some k -> k
                    | None -> raise (Parse "bad violation kind")
                  in
                  {
                    v_kind = kind;
                    v_invariant = g_str f "invariant";
                    v_detail = g_str f "detail";
                    v_time = g_num f "ts";
                    v_event = g_str f "event";
                  }
              | _ -> raise (Parse "bad violation"))
            (get_arr "violations" fields)
        in
        let ledger =
          List.map
            (function
              | Json.Obj f ->
                  {
                    l_q = g_int f "q";
                    l_site = g_int f "site";
                    l_keys = g_int f "keys";
                    l_epsilon = g_int_opt f "epsilon";
                    l_charged = g_int f "charged";
                    l_forced =
                      (match List.assoc_opt "forced" f with
                      | Some (Json.Num v) -> int_of_float v
                      | _ -> 0);
                    l_consistent = g_bool f "consistent";
                    l_latency = g_num f "latency";
                    l_reconstructed = g_int_opt f "reconstructed";
                    l_oracle =
                      (match List.assoc_opt "oracle" f with
                      | Some Json.Null -> None
                      | Some (Json.Num v) -> Some v
                      | _ -> raise (Parse "bad oracle field"));
                  }
              | _ -> raise (Parse "bad ledger entry"))
            (get_arr "ledger" fields)
        in
        let s = get_obj "summary" fields in
        Ok
          {
            label = g_str fields "label";
            violations;
            ledger;
            summary =
              {
                s_events = g_int fields "events";
                s_dropped = g_int fields "dropped";
                s_queries = g_int s "queries";
                s_bounded = g_int s "bounded";
                s_at_bound = g_int s "at_bound";
                s_charged_total = g_int s "charged_total";
                s_windows = g_int s "windows";
                s_windows_exact = g_int s "windows_exact";
                s_max_replay = g_int s "max_replay";
                s_max_crash_log = g_int s "max_crash_log";
                s_crashes = g_int s "crashes";
                s_cuts = g_int s "cuts";
                s_converged =
                  (match List.assoc_opt "converged" s with
                  | Some Json.Null -> None
                  | Some (Json.Bool v) -> Some v
                  | _ -> raise (Parse "bad converged field"));
              };
          }
      with Parse msg -> Error msg)
  | _ -> Error "not a JSON object"

(* --- rendering --- *)

let pp_violation ppf vi =
  Format.fprintf ppf "[%s] %s at t=%.3f (%s): %s"
    (kind_to_string vi.v_kind)
    vi.v_invariant vi.v_time vi.v_event vi.v_detail

let pp_report ppf r =
  let s = r.summary in
  Format.fprintf ppf "audit %s: %s (%d events%s)@."
    r.label
    (if ok r then "CERTIFIED"
     else Printf.sprintf "%d VIOLATION%s" (List.length r.violations)
         (if List.length r.violations = 1 then "" else "S"))
    s.s_events
    (if s.s_dropped > 0 then
       Printf.sprintf ", PARTIAL: %d dropped" s.s_dropped
     else "");
  Format.fprintf ppf
    "  queries %d (bounded %d, at-bound %d, charged %d total)@."
    s.s_queries s.s_bounded s.s_at_bound s.s_charged_total;
  Format.fprintf ppf
    "  windows %d (%d exact overlap); crashes %d (max log %d, max replay \
     %d); cuts %d; converged %s@."
    s.s_windows s.s_windows_exact s.s_crashes s.s_max_crash_log s.s_max_replay
    s.s_cuts
    (match s.s_converged with
    | Some true -> "yes"
    | Some false -> "NO"
    | None -> "n/a");
  List.iter (fun vi -> Format.fprintf ppf "  %a@." pp_violation vi) r.violations

(* --- mutation injectors (self-tests) ---

   Each takes a recorded trace and deliberately breaks one invariant, so
   the test suite can assert the auditor catches exactly that violation
   — the audit gate cannot pass vacuously. *)

module Mutate = struct
  (* Replay an already-delivered sequence number: breaks exactly-once. *)
  let replay_delivery records =
    let rec go = function
      | [] -> []
      | ({ Trace.ev = Trace.Squeue_delivered _; _ } as r) :: rest ->
          r :: r :: rest
      | r :: rest -> r :: go rest
    in
    go records

  (* Swap the tickets of the first two applies in one site's stream
     (records keep their times and positions; only the [order] fields
     trade places): breaks in-order execution. *)
  let reorder_stream records =
    let seen = Hashtbl.create 4 in
    let target = ref None in
    List.iteri
      (fun i (r : Trace.record) ->
        if !target = None then
          match r.Trace.ev with
          | Trace.Mset_applied { site; order = Some o; _ } -> (
              match Hashtbl.find_opt seen site with
              | None -> Hashtbl.replace seen site (i, o)
              | Some (j, oj) -> target := Some (j, oj, i, o))
          | _ -> ())
      records;
    match !target with
    | None -> records
    | Some (i, oi, j, oj) ->
        List.mapi
          (fun k (r : Trace.record) ->
            match r.Trace.ev with
            | Trace.Mset_applied a when k = i ->
                { r with Trace.ev = Trace.Mset_applied { a with order = Some oj } }
            | Trace.Mset_applied a when k = j ->
                { r with Trace.ev = Trace.Mset_applied { a with order = Some oi } }
            | _ -> r)
          records

  (* Bump a bounded query's charge past its epsilon: breaks the paper's
     bound. *)
  let overcharge records =
    let done_ = ref false in
    List.map
      (fun (r : Trace.record) ->
        match r.Trace.ev with
        | Trace.Query_served
            ({ epsilon = Some e; _ } as q)
          when not !done_ ->
            done_ := true;
            { r with Trace.ev = Trace.Query_served { q with charged = e + 1 } }
        | _ -> r)
      records
end
