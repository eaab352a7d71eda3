(** COMPE — compensation-based backward replica control (paper §4).

    Update MSets are applied *optimistically*, before the global update
    commits.  A later global abort triggers compensation.  Following
    §4.2's framing, MSets execute in a global order (ORDUP-style
    per-site sequencer tickets), and the compensation strategy depends on
    operation semantics:

    - {b fast path}: if every operation of the aborted MSet has a logical
      inverse and commutes with everything applied after it, the inverses
      are applied directly ("the system can simply apply the compensation
      without any overhead");
    - {b full rollback}: otherwise the tail of the log is undone
      physically (recorded before-images, reverse order) back to the
      aborted MSet, the MSet is discarded, and the rest of the log is
      replayed — the Time Warp undo/redo of §4.1.

    Queries are charged through per-object lock-counters covering the
    *undecided window* of each update (provisional apply → global
    decision).  Compensations that land after a query finished cannot be
    charged to it any more — the paper's "much harder for the query ETs
    that have just finished" problem; such queries are counted as
    {e tainted} and reported by experiment E5.  Compensations hitting a
    query still in flight force-charge its counter, possibly beyond its
    epsilon (also reported). *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Lock_counter = Esr_cc.Lock_counter
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Prng = Esr_util.Prng
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type mset = {
  et : Et.id;
  ticket : int;
  ops : (string * Op.t) list;
  origin : int;
  saga : int option;  (* saga id when this MSet is one saga step *)
}

type msg =
  | Provisional of mset
  | Decide of { et : Et.id; commit : bool }
  | Revoke of { et : Et.id }
      (** compensate an already-committed saga step (saga backward recovery) *)
  | Saga_end of { sid : int }
      (** the saga completed: release its deferred lock-counters *)

type entry = {
  e_et : Et.id;
  e_ops : (string * Op.t) list;
  e_saga : int option;
  mutable e_undos : Store.undo list;  (* reverse application order *)
  mutable e_decided : bool;
}

type active_query = {
  aq_keys : string list;
  mutable aq_observed : Et.id list;
      (* undecided update ETs whose effects were included in the values
         this query has read so far *)
  aq_eps : Epsilon.counter;
  mutable aq_forced : int;
  mutable aq_killed : bool;  (* the site crashed mid-query: finish degraded *)
}

type done_query = { dq_observed : Et.id list; mutable dq_tainted : bool }

(* A parked continuation: [resume] when the counters drain, [fail] when
   the site crashes and the volatile wait context is lost. *)
type parked = { resume : unit -> unit; fail : unit -> unit }

type site = {
  id : int;
  mutable store : Store.t;  (* volatile image; rebuilt from [hist] *)
  mutable hist : Hist.t;  (* the durable log *)
  mutable last_exec : int;
  buffer : (int, mset) Hashtbl.t;
  mutable log : entry list;
      (* newest first.  This is COMPE's undo/redo journal (the Time Warp
         log of §4.1): durable, like [hist] — the before-image chains ARE
         the recovery log. *)
  counters : Lock_counter.t;
  early : (Et.id, bool) Hashtbl.t;  (* decision arrived before execution *)
  mutable parked_queries : parked list;
  mutable active : active_query list;
  mutable completed : done_query list;
  saga_held : (int, string list ref) Hashtbl.t;
      (* per saga: keys whose counter decrement is deferred to saga end
         (paper 4.2: "maintain the lock-counter value throughout a saga") *)
  pending_revokes : (Et.id, unit) Hashtbl.t;
      (* revokes that overtook the step's own commit decision *)
  ended_sagas : (int, unit) Hashtbl.t;
      (* Saga_end may overtake a step's commit decision: late steps of an
         ended saga release their counters immediately *)
  mutable down : bool;
}

(* A globally undecided update ET, indexed so a crash of its origin (the
   coordinator) can force a presumed-abort decision before the timer. *)
type decision = {
  d_origin : int;
  mutable d_done : bool;
  d_apply : commit:bool -> unit;
}

type t = {
  env : Intf.env;
  dests : Sharding.Dests.t;  (* reusable routing cursor (launch path) *)
  site_issued : int array;
      (* per-site dense ticket streams — the same interest-ordered
         sequencer as ordup.ml *)
  prng : Prng.t;
  sites : site array;
  fabric : msg Squeue.t;
  outcomes : (Et.id, Intf.update_outcome -> unit) Hashtbl.t;
  wal : (Et.id, mset) Recovery.Wal.t;  (* durable MSet receipt journal *)
  decisions : (Et.id, decision) Hashtbl.t;
  mutable deferred_local : (int * msg) list;
      (* a site's own coordinator records (decisions, revokes) landing
         while it is down; replayed — in order — at recovery.  Newest
         first. *)
  mutable undecided : int;  (* globally undecided update ETs *)
  mutable next_saga : int;
  mutable sagas_active : int;
  mutable n_sagas : int;
  mutable n_saga_aborts : int;
  mutable n_revokes : int;
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_aborts : int;
  mutable n_fast : int;
  mutable n_full : int;
  mutable n_skips : int;  (* aborted before execution *)
  mutable n_replayed_ops : int;
  mutable rollback_depth_total : int;
  mutable n_tainted : int;
  mutable n_forced : int;
  mutable n_query_waits : int;
}

let meta =
  {
    Intf.name = "COMPE";
    family = Intf.Backward;
    restriction = "operation value";
    async_propagation = "Query & Update";
    sorting_time = "N/A";
  }

let log_action site ~et ~key op =
  site.hist <- Hist.append site.hist (Et.action ~et ~key op)

let wake_queries site =
  let waiting = List.rev site.parked_queries in
  site.parked_queries <- [];
  List.iter (fun p -> p.resume ()) waiting

(* --- compensation machinery --- *)

let entry_keys entry = List.map fst entry.e_ops

let apply_entry_ops site entry =
  let undos =
    List.fold_left
      (fun acc (key, op) ->
        match Store.apply site.store key op with
        | Ok undo -> undo :: acc
        | Error _ -> invalid_arg "COMPE: op failed to apply")
      [] entry.e_ops
  in
  entry.e_undos <- undos

let fast_path_possible aborted later =
  List.for_all (fun (_, op) -> Op.inverse op <> None) aborted.e_ops
  && List.for_all
       (fun entry ->
         List.for_all
           (fun (_, later_op) ->
             List.for_all
               (fun (_, aborted_op) -> Op.commutes later_op aborted_op)
               aborted.e_ops)
           entry.e_ops)
       later

let trace_compensation t site et kind =
  let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Engine.now t.env.engine)
      (Trace.Compensation_fired { et; site = site.id; kind })

let compensate_fast t site aborted =
  t.n_fast <- t.n_fast + 1;
  trace_compensation t site aborted.e_et `Fast;
  let comp_et = t.env.Intf.next_et () in
  let inverse_ops =
    List.rev_map
      (fun (key, op) ->
        match Op.inverse op with
        | Some inv -> (key, inv)
        | None -> assert false)
      aborted.e_ops
  in
  (* The compensation is itself a (pre-decided) log entry: every store
     mutation must live in the log, or a later full rollback's
     before-images would silently erase the compensation's effect when it
     rewinds and replays the tail. *)
  let entry =
    {
      e_et = comp_et;
      e_ops = inverse_ops;
      e_saga = None;
      e_undos = [];
      e_decided = true;
    }
  in
  apply_entry_ops site entry;
  site.log <- entry :: site.log;
  List.iter (fun (key, inv) -> log_action site ~et:comp_et ~key inv) inverse_ops

let compensate_full t site aborted later =
  t.n_full <- t.n_full + 1;
  trace_compensation t site aborted.e_et `Full;
  t.rollback_depth_total <- t.rollback_depth_total + List.length later;
  (* Undo the log tail physically, newest first, then the aborted entry. *)
  List.iter
    (fun entry -> List.iter (Store.rollback site.store) entry.e_undos)
    later;
  List.iter (Store.rollback site.store) aborted.e_undos;
  (* Replay the tail in original order, refreshing undo images. *)
  List.iter
    (fun entry ->
      apply_entry_ops site entry;
      t.n_replayed_ops <- t.n_replayed_ops + List.length entry.e_ops)
    (List.rev later);
  (* Log the repair as a compensation ET writing the restored values. *)
  let comp_et = t.env.Intf.next_et () in
  List.iter
    (fun key -> log_action site ~et:comp_et ~key (Op.Write (Store.get site.store key)))
    (List.sort_uniq String.compare (entry_keys aborted))

(* The compensation of [et] contaminates exactly the queries that read a
   value including [et]'s provisional effect.  Queries still in flight are
   force-charged (possibly beyond their epsilon — the §4.2 hazard); queries
   that already finished can only be counted as tainted. *)
let taint_and_force t site et =
  List.iter
    (fun dq ->
      if (not dq.dq_tainted) && List.mem et dq.dq_observed then begin
        dq.dq_tainted <- true;
        t.n_tainted <- t.n_tainted + 1
      end)
    site.completed;
  List.iter
    (fun aq ->
      if List.mem et aq.aq_observed then begin
        Epsilon.charge_forced aq.aq_eps 1;
        aq.aq_forced <- aq.aq_forced + 1;
        t.n_forced <- t.n_forced + 1
      end)
    site.active

(* Undecided update ETs whose effect on [key] is included in its current
   value — what an epsilon charge for reading [key] actually buys. *)
let undecided_on site key =
  List.filter_map
    (fun entry ->
      if (not entry.e_decided) && List.exists (fun (k, _) -> String.equal k key) entry.e_ops
      then Some entry.e_et
      else None)
    site.log

let rec process_decision t site et ~commit =
  (* Find the executed entry; absent means the decision overtook the
     provisional — stash it for execution time. *)
  let rec split acc = function
    | [] -> None
    | entry :: rest when entry.e_et = et -> Some (List.rev acc, entry, rest)
    | entry :: rest -> split (entry :: acc) rest
  in
  match split [] site.log with
  | None -> Hashtbl.replace site.early et commit
  | Some (later, entry, older) ->
      if entry.e_decided then ()
      else begin
        entry.e_decided <- true;
        (match (commit, entry.e_saga) with
        | true, Some sid when not (Hashtbl.mem site.ended_sagas sid) ->
            (* Saga step: the paper's conservative accounting keeps the
               lock-counters up until the whole saga ends. *)
            let held =
              match Hashtbl.find_opt site.saga_held sid with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.replace site.saga_held sid r;
                  r
            in
            held := entry_keys entry @ !held
        | true, Some _ | true, None | false, _ ->
            List.iter (fun key -> ignore (Lock_counter.decr site.counters key))
              (entry_keys entry));
        if not commit then begin
          if fast_path_possible entry later then
            (* The aborted entry stays in the log and the inverse entry
               joins it: the log mirrors the store's mutation history
               (net effect zero), which keeps every before-image chain
               used by later full rollbacks accurate. *)
            compensate_fast t site entry
          else begin
            (* Physical removal: the entry's effect is rewound out of the
               store, so it leaves the log too. *)
            compensate_full t site entry later;
            site.log <- later @ older
          end;
          taint_and_force t site et
        end;
        wake_queries site;
        if Hashtbl.mem site.pending_revokes et then begin
          Hashtbl.remove site.pending_revokes et;
          revoke t site et
        end
      end

(* Compensate an already-committed saga step and release its deferred
   counters.  A revoke that arrives before the step's own commit decision
   is stashed and replayed once the decision lands. *)
and revoke t site et =
  let rec split acc = function
    | [] -> None
    | entry :: rest when entry.e_et = et -> Some (List.rev acc, entry, rest)
    | entry :: rest -> split (entry :: acc) rest
  in
  match split [] site.log with
  | None -> Hashtbl.replace site.pending_revokes et ()
  | Some (later, entry, older) ->
      if not entry.e_decided then Hashtbl.replace site.pending_revokes et ()
      else begin
        t.n_revokes <- t.n_revokes + 1;
        trace_compensation t site et `Revoke;
        if fast_path_possible entry later then compensate_fast t site entry
        else begin
          compensate_full t site entry later;
          site.log <- later @ older
        end;
        (* Release this step's deferred counters. *)
        (match entry.e_saga with
        | Some sid -> (
            match Hashtbl.find_opt site.saga_held sid with
            | Some held ->
                List.iter
                  (fun key ->
                    if List.mem key !held then begin
                      held := remove_first key !held;
                      ignore (Lock_counter.decr site.counters key)
                    end)
                  (entry_keys entry)
            | None -> ())
        | None -> ());
        taint_and_force t site et;
        wake_queries site
      end

and remove_first key = function
  | [] -> []
  | head :: rest -> if String.equal head key then rest else head :: remove_first key rest

let execute_inner t site mset =
  Recovery.Wal.consume t.wal ~site:site.id ~key:mset.et;
  match Hashtbl.find_opt site.early mset.et with
  | Some false ->
      (* Aborted before it ever executed here: skip entirely. *)
      Hashtbl.remove site.early mset.et;
      t.n_skips <- t.n_skips + 1
  | (Some true | None) as early ->
      (* Union routing delivers the whole MSet to every interested site;
         each site executes (and counter-covers, and may later compensate)
         only the shards it replicates. *)
      let ops =
        List.filter
          (fun (key, _) ->
            Sharding.replicates_id t.env.Intf.sharding ~site:site.id
              ~id:(Keyspace.find t.env.Intf.keyspace key))
          mset.ops
      in
      let entry =
        {
          e_et = mset.et;
          e_ops = ops;
          e_saga = mset.saga;
          e_undos = [];
          e_decided = false;
        }
      in
      let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
      if Trace.on trace then
        Trace.emit trace ~time:(Engine.now t.env.engine)
          (Trace.Mset_applied
             { et = mset.et; site = site.id; n_ops = List.length ops; order = None });
      apply_entry_ops site entry;
      List.iter
        (fun (key, op) ->
          ignore (Lock_counter.incr site.counters key);
          log_action site ~et:mset.et ~key op)
        ops;
      site.log <- entry :: site.log;
      (match early with
      | Some true ->
          Hashtbl.remove site.early mset.et;
          process_decision t site mset.et ~commit:true
      | Some false | None -> ())

let execute t site mset =
  let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    execute_inner t site mset;
    Prof.record prof ~site:site.id Prof.Apply ~t0 ~a0
  end
  else execute_inner t site mset

let rec drain t site =
  match Hashtbl.find_opt site.buffer (site.last_exec + 1) with
  | None -> ()
  | Some mset ->
      Hashtbl.remove site.buffer (site.last_exec + 1);
      site.last_exec <- site.last_exec + 1;
      execute t site mset;
      drain t site

let saga_end t site sid =
  Hashtbl.replace site.ended_sagas sid ();
  (match Hashtbl.find_opt site.saga_held sid with
  | Some held ->
      List.iter (fun key -> ignore (Lock_counter.decr site.counters key)) !held;
      Hashtbl.remove site.saga_held sid
  | None -> ());
  wake_queries site;
  ignore t

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Provisional mset ->
      (* Journal the receipt before it enters the volatile order buffer
         (see ordup.ml: the transport has acked it, so the journal holds
         the only durable copy until execution logs it). *)
      Recovery.Wal.append t.wal ~site:site_id ~key:mset.et mset;
      Hashtbl.replace site.buffer mset.ticket mset;
      drain t site
  | Decide { et; commit } -> process_decision t site et ~commit
  | Revoke { et } -> revoke t site et
  | Saga_end { sid } -> saga_end t site sid

(* Local (origin-side) copies bypass the network; while the origin is
   down they are stashed as its durable coordinator records and replayed
   at recovery. *)
let local_receive t ~site msg =
  if t.sites.(site).down then t.deferred_local <- (site, msg) :: t.deferred_local
  else receive t ~site msg

(* Coordinator-record fan-out (Decide / Revoke) to the launch-time
   participant set.  The origin's copy bypasses the network. *)
let fan_coord t ~origin parts msg =
  let has_origin = ref false in
  Array.iter
    (fun dst ->
      if dst = origin then has_origin := true
      else Squeue.send t.fabric ~src:origin ~dst msg)
    parts;
  if !has_origin then local_receive t ~site:origin msg

let create (env : Intf.env) =
  let rec t =
    lazy
      (let fabric =
         Squeue.create ~mode:Squeue.Unordered
           ~retry_interval:env.Intf.config.Intf.retry_interval
           ?backoff:env.Intf.config.Intf.retry_backoff
           ~obs:env.Intf.obs env.Intf.net
           ~handler:(fun ~site ~src:_ msg -> receive (Lazy.force t) ~site msg)
       in
       {
         env;
         dests = Sharding.Dests.cursor env.Intf.sharding;
         site_issued = Array.make env.Intf.sites 0;
         prng = Prng.split env.Intf.prng;
         sites =
           Array.init env.Intf.sites (fun id ->
               {
                 id;
                 store =
                   Store.create ~size:env.Intf.store_hint
                     ~keyspace:env.Intf.keyspace ();
                 hist = Hist.empty;
                 last_exec = 0;
                 buffer = Hashtbl.create 32;
                 log = [];
                 counters = Lock_counter.create ~hint:env.Intf.store_hint ();
                 early = Hashtbl.create 8;
                 parked_queries = [];
                 active = [];
                 completed = [];
                 saga_held = Hashtbl.create 8;
                 pending_revokes = Hashtbl.create 8;
                 ended_sagas = Hashtbl.create 8;
                 down = false;
               });
         fabric;
         outcomes = Hashtbl.create 32;
         wal =
           Recovery.Wal.create ~prof:env.Intf.obs.Esr_obs.Obs.prof
             ~hint:env.Intf.store_hint ~sites:env.Intf.sites ();
         decisions = Hashtbl.create 32;
         deferred_local = [];
         undecided = 0;
         next_saga = 0;
         sagas_active = 0;
         n_sagas = 0;
         n_saga_aborts = 0;
         n_revokes = 0;
         n_updates = 0;
         n_queries = 0;
         n_aborts = 0;
         n_fast = 0;
         n_full = 0;
         n_skips = 0;
         n_replayed_ops = 0;
         rollback_depth_total = 0;
         n_tainted = 0;
         n_forced = 0;
         n_query_waits = 0;
       })
  in
  Lazy.force t

let intent_to_op = function
  | Intf.Set (k, v) -> (k, Op.Write v)
  | Intf.Add (k, d) -> (k, Op.Incr d)
  | Intf.Mul (k, f) -> (k, Op.Mult f)

(* Launch one update ET (or saga step): apply optimistically everywhere,
   then simulate the global commit/abort decision after a coordination
   delay ("the system may start running MSets before the global update is
   committed", Sec 4.1). *)
let launch_step t ~origin ~saga ops ~on_decision =
  let et = t.env.Intf.next_et () in
  (* Participants: the union of the touched shards' replica sets (keys
     interned here so every later lookup agrees on the shard). *)
  let parts =
    let c = t.dests in
    Sharding.Dests.reset c;
    List.iter
      (fun (key, _) ->
        Sharding.Dests.add_id c (Keyspace.intern t.env.Intf.keyspace key))
      ops;
    let arr = Array.make (Sharding.Dests.count c) 0 in
    let i = ref 0 in
    Sharding.Dests.iter c (fun s ->
        arr.(!i) <- s;
        incr i);
    arr
  in
  let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Engine.now t.env.engine)
      (Trace.Mset_enqueued
         {
           et;
           origin;
           n_ops = List.length ops;
           keys = List.map fst ops;
         });
  t.undecided <- t.undecided + 1;
  (* Per-site dense tickets, assigned in one atomic step (ordup.ml). *)
  let local = ref None in
  let propagate () =
    Array.iter
      (fun dst ->
        t.site_issued.(dst) <- t.site_issued.(dst) + 1;
        let m = { et; ticket = t.site_issued.(dst); ops; origin; saga } in
        if dst = origin then local := Some m
        else Squeue.send t.fabric ~src:origin ~dst (Provisional m))
      parts
  in
  let prof = t.env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    propagate ();
    Prof.record prof ~site:origin Prof.Propagate ~t0 ~a0
  end
  else propagate ();
  (match !local with
  | Some m -> receive t ~site:origin (Provisional m)
  | None -> ());
  let config = t.env.Intf.config in
  let d_apply ~commit =
    if not commit then t.n_aborts <- t.n_aborts + 1;
    t.undecided <- t.undecided - 1;
    (* If the origin is down, the stable queue holds the fan-out and the
       local copy is stashed as a coordinator record for replay. *)
    fan_coord t ~origin parts (Decide { et; commit });
    on_decision ~et ~commit
  in
  let d = { d_origin = origin; d_done = false; d_apply } in
  Hashtbl.replace t.decisions et d;
  ignore
    (Engine.schedule t.env.engine ~delay:config.Intf.compe_decision_delay
       (fun () ->
         if not d.d_done then begin
           d.d_done <- true;
           Hashtbl.remove t.decisions et;
           let commit =
             not (Prng.bernoulli t.prng config.Intf.compe_abort_probability)
           in
           d_apply ~commit
         end));
  (et, parts)

let submit_update t ~origin intents k =
  if t.sites.(origin).down then k (Intf.Rejected "origin site down")
  else if intents = [] then k (Intf.Rejected "empty update ET")
  else begin
    t.n_updates <- t.n_updates + 1;
    let ops = List.map intent_to_op intents in
    (* Every op must be compensatable: a logical inverse or a journaled
       before-image (all our updates qualify; reads need none). *)
    ignore
      (launch_step t ~origin ~saga:None ops ~on_decision:(fun ~et:_ ~commit ->
           if commit then
             k (Intf.Committed { committed_at = Engine.now t.env.engine })
           else k (Intf.Rejected "global update aborted")))
  end

(* A saga (Garcia-Molina & Salem, cited by Sec 4.2): a sequence of update
   ETs executed one after another.  Each step commits optimistically, but
   its lock-counters stay up until the entire saga ends, giving queries a
   conservative upper bound on the saga's total potential inconsistency.
   If a step's global decision is an abort, every previously committed
   step is revoked (compensated) in reverse order and the saga fails. *)
let submit_saga t ~origin steps k =
  if t.sites.(origin).down then k (Intf.Rejected "origin site down")
  else if steps = [] || List.exists (fun intents -> intents = []) steps then
    k (Intf.Rejected "saga with an empty step")
  else begin
    t.n_sagas <- t.n_sagas + 1;
    t.sagas_active <- t.sagas_active + 1;
    t.next_saga <- t.next_saga + 1;
    let sid = t.next_saga in
    let finish outcome =
      t.sagas_active <- t.sagas_active - 1;
      k outcome
    in
    let rec run_step step_index committed = function
      | [] ->
          (* All steps committed: release the deferred counters at every
             site that executed a step. *)
          let seen = Array.make t.env.Intf.sites false in
          List.iter
            (fun (_, parts) -> Array.iter (fun s -> seen.(s) <- true) parts)
            committed;
          for dst = 0 to t.env.Intf.sites - 1 do
            if seen.(dst) && dst <> origin then
              Squeue.send t.fabric ~src:origin ~dst (Saga_end { sid })
          done;
          if seen.(origin) then local_receive t ~site:origin (Saga_end { sid });
          finish (Intf.Committed { committed_at = Engine.now t.env.engine })
      | intents :: rest ->
          t.n_updates <- t.n_updates + 1;
          let ops = List.map intent_to_op intents in
          let step_parts = ref [||] in
          let _, parts =
            launch_step t ~origin ~saga:(Some sid) ops
              ~on_decision:(fun ~et ~commit ->
                if commit then
                  run_step (step_index + 1) ((et, !step_parts) :: committed) rest
                else begin
                  (* Backward recovery: compensate the committed prefix,
                     newest first, at exactly the sites that executed it. *)
                  t.n_saga_aborts <- t.n_saga_aborts + 1;
                  List.iter
                    (fun (prev_et, prev_parts) ->
                      fan_coord t ~origin prev_parts (Revoke { et = prev_et }))
                    committed;
                  finish
                    (Intf.Rejected
                       (Printf.sprintf "saga aborted at step %d" step_index))
                end)
          in
          step_parts := parts
    in
    run_step 1 [] steps
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let et = t.env.Intf.next_et () in
  let eps = Epsilon.create epsilon in
  let started_at = Engine.now t.env.engine in
  let degraded ?(forced = 0) vs =
    k
      {
        Intf.values = vs;
        charged = Epsilon.value eps;
        forced;
        consistent_path = false;
        started_at;
        served_at = Engine.now t.env.engine;
      }
  in
  if site.down then
    (* Graceful failure: a crashed site answers from its last image,
       flagged degraded. *)
    degraded (List.map (fun key -> (key, Store.get site.store key)) keys)
  else begin
  let aq =
    {
      aq_keys = keys;
      aq_observed = [];
      aq_eps = eps;
      aq_forced = 0;
      aq_killed = false;
    }
  in
  site.active <- aq :: site.active;
  let waited = ref false in
  let values = ref [] in
  let fail_degraded vs =
    site.active <- List.filter (fun a -> a != aq) site.active;
    degraded ~forced:aq.aq_forced vs
  in
  (* Strict queries take an atomic snapshot once every key is free of
     undecided provisional updates (see the same reasoning in commu.ml). *)
  if epsilon = Epsilon.Limit 0 then begin
    let rec strict_attempt () =
      if List.for_all (fun key -> Lock_counter.count site.counters key = 0) keys
      then begin
        let snapshot =
          List.map
            (fun key ->
              log_action site ~et ~key Op.Read;
              (key, Store.get site.store key))
            keys
        in
        site.active <- List.filter (fun a -> a != aq) site.active;
        site.completed <-
          { dq_observed = aq.aq_observed; dq_tainted = false } :: site.completed;
        k
          {
            Intf.values = snapshot;
            charged = Epsilon.value eps;
            forced = aq.aq_forced;
            consistent_path = !waited;
            started_at;
            served_at = Engine.now t.env.engine;
          }
      end
      else begin
        waited := true;
        t.n_query_waits <- t.n_query_waits + 1;
        site.parked_queries <-
          {
            resume = strict_attempt;
            fail =
              (fun () ->
                fail_degraded
                  (List.map (fun key -> (key, Store.get site.store key)) keys));
          }
          :: site.parked_queries
      end
    in
    strict_attempt ()
  end
  else
  let rec step remaining =
    if aq.aq_killed then
      (* Crash mid-query: serve what was gathered, degraded.  The query
         skips the completed list — its outcome already reports the
         inconsistency. *)
      degraded ~forced:aq.aq_forced (List.rev !values)
    else
    match remaining with
    | [] ->
        site.active <- List.filter (fun a -> a != aq) site.active;
        site.completed <-
          { dq_observed = aq.aq_observed; dq_tainted = false } :: site.completed;
        k
          {
            Intf.values = List.rev !values;
            charged = Epsilon.value eps;
            forced = aq.aq_forced;
            consistent_path = !waited;
            started_at;
            served_at = Engine.now t.env.engine;
          }
    | key :: rest ->
        let pending = Lock_counter.count site.counters key in
        let admissible = pending = 0 || Epsilon.try_charge eps pending in
        if admissible then begin
          log_action site ~et ~key Op.Read;
          aq.aq_observed <-
            List.sort_uniq Int.compare (undecided_on site key @ aq.aq_observed);
          values := (key, Store.get site.store key) :: !values;
          if rest = [] then step []
          else
            ignore
              (Engine.schedule t.env.engine
                 ~delay:t.env.Intf.config.Intf.query_step_delay (fun () ->
                   step rest))
        end
        else begin
          waited := true;
          t.n_query_waits <- t.n_query_waits + 1;
          site.parked_queries <-
            {
              resume = (fun () -> step remaining);
              fail = (fun () -> fail_degraded (List.rev !values));
            }
            :: site.parked_queries
        end
  in
  step keys
  end

let flush _ = ()

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  if not site.down then begin
    site.down <- true;
    (* Durable: [hist], the undo/redo journal ([site.log]), the
       lock-counters and decision-bookkeeping tables (early / revokes /
       saga holds) — all coordinator-log state.  Volatile: the order
       buffer (receipt-journaled in [t.wal]), wait contexts, and the
       store image. *)
    let buffered = Hashtbl.length site.buffer in
    Hashtbl.reset site.buffer;
    let parked = site.parked_queries in
    site.parked_queries <- [];
    List.iter (fun p -> p.fail ()) parked;
    let killed = List.length site.active in
    List.iter (fun aq -> aq.aq_killed <- true) site.active;
    site.active <- [];
    (* The crashed site was the coordinator of its undecided update ETs:
       presumed abort.  The abort records reach the remotes through the
       stable queue (now, if reachable) and this site at replay time. *)
    let orphaned =
      Hashtbl.fold
        (fun et d acc ->
          if d.d_origin = site_id && not d.d_done then (et, d) :: acc else acc)
        t.decisions []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (et, d) ->
        d.d_done <- true;
        Hashtbl.remove t.decisions et;
        d.d_apply ~commit:false)
      orphaned;
    Recovery.emit_volatile_dropped ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine
      ~site:site_id ~buffered
      ~queries_failed:(List.length parked + killed)
      ~updates_rejected:(List.length orphaned) ~log:(Hist.length site.hist)
  end

let on_recover t ~site:site_id =
  let site = t.sites.(site_id) in
  if site.down then begin
    site.down <- false;
    (* Rebuild the store image from the durable log (every mutation —
       provisional applies, compensations, rollback repairs — is logged,
       so the replay lands exactly on the pre-crash image the journal's
       before-image chains describe)... *)
    site.store <-
      Recovery.replay_site ?ckpt:t.env.Intf.checkpoint
        ~keyspace:t.env.Intf.keyspace ~size:t.env.Intf.store_hint
        ~obs:t.env.Intf.obs ~engine:t.env.Intf.engine ~site:site_id site.hist;
    (* ...re-ingest journaled-but-unexecuted provisional MSets... *)
    List.iter
      (fun mset -> Hashtbl.replace site.buffer mset.ticket mset)
      (Recovery.Wal.entries t.wal ~site:site_id);
    drain t site;
    (* ...and replay the site's own coordinator records that landed while
       it was down, in arrival order. *)
    let mine, others =
      List.partition (fun (s, _) -> s = site_id) (List.rev t.deferred_local)
    in
    t.deferred_local <- List.rev others;
    List.iter (fun (_, msg) -> receive t ~site:site_id msg) mine;
    wake_queries site
  end

let checkpoint t ~site:site_id =
  match t.env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      let site = t.sites.(site_id) in
      if not site.down then begin
        let dedup = Squeue.gc_site t.fabric ~site:site_id in
        (* The Time Warp undo/redo journal is reclaimable behind the
           oldest undecided entry: a full rollback only ever rewinds from
           an undecided entry forward, so decided entries older than every
           undecided one can never be rewound again.  In the newest-first
           list that is the maximal all-decided suffix.  After pruning,
           the before-image chains describe mutations since the cut; the
           checkpoint image anchors them. *)
        let keep, prunable =
          let rec split = function
            | [] -> ([], [])
            | e :: rest ->
                let keep, prunable = split rest in
                if keep = [] && e.e_decided then ([], e :: prunable)
                else (e :: keep, prunable)
          in
          split site.log
        in
        site.log <- keep;
        let reclaimed = dedup + List.length prunable in
        site.hist <-
          Checkpoint.cut c ~engine:t.env.Intf.engine ~site:site_id
            ~store:site.store ~hist:site.hist ~reclaimed ()
      end

let quiescent t =
  t.undecided = 0 && t.sagas_active = 0 && t.deferred_local = []
  && Array.for_all
       (fun site ->
         Hashtbl.length site.buffer = 0
         && Hashtbl.length site.early = 0
         && Hashtbl.length site.pending_revokes = 0
         && site.parked_queries = []
         && Lock_counter.total_nonzero site.counters = 0)
       t.sites

let backlog t =
  Array.fold_left
    (fun acc site ->
      acc + Hashtbl.length site.buffer + Hashtbl.length site.early
      + Hashtbl.length site.pending_revokes
      + List.length site.parked_queries)
    (t.undecided + t.sagas_active + List.length t.deferred_local)
    t.sites

let store t ~site = t.sites.(site).store

(* Introspection for tests: the site's remaining log entries (oldest
   first).  Invariant: folding the entries' operations over an empty
   store reproduces the site's current store exactly — every store
   mutation is a log entry, which is what keeps the before-image chains
   used by full rollback accurate. *)
let log_entries t ~site =
  List.rev_map (fun e -> (e.e_et, e.e_decided, e.e_ops)) t.sites.(site).log
let mvstore _ ~site:_ = None
let history t ~site = t.sites.(site).hist

let converged t =
  Sharding.converged t.env.Intf.sharding ~keyspace:t.env.Intf.keyspace
    ~store:(fun site -> t.sites.(site).store)

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("aborts", float_of_int t.n_aborts);
    ("fast_compensations", float_of_int t.n_fast);
    ("full_rollbacks", float_of_int t.n_full);
    ("skipped_aborts", float_of_int t.n_skips);
    ("replayed_ops", float_of_int t.n_replayed_ops);
    ("rollback_depth_total", float_of_int t.rollback_depth_total);
    ("tainted_queries", float_of_int t.n_tainted);
    ("forced_charges", float_of_int t.n_forced);
    ("query_waits", float_of_int t.n_query_waits);
    ("sagas", float_of_int t.n_sagas);
    ("saga_aborts", float_of_int t.n_saga_aborts);
    ("revokes", float_of_int t.n_revokes);
  ]

let resources t ~site:site_id =
  let site = t.sites.(site_id) in
  {
    Intf.log_entries = Hist.length site.hist;
    log_bytes = Hist.approx_bytes site.hist;
    wal_entries = Recovery.Wal.size t.wal ~site:site_id;
    wal_appended = Recovery.Wal.appended t.wal ~site:site_id;
    wal_high_water = Recovery.Wal.high_water t.wal ~site:site_id;
    journal_depth = Squeue.journal_depth t.fabric ~site:site_id;
    journal_enqueued = Squeue.journaled t.fabric ~site:site_id;
    store_words = Store.live_words site.store;
  }
