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
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
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
  replica : Replica.site;  (* durable log, store image, up/down *)
  mutable last_exec : int;
  buffer : (int, mset) Hashtbl.t;
  mutable log : entry list;
      (* newest first.  This is COMPE's undo/redo journal (the Time Warp
         log of §4.1): durable, like the replica's log — the before-image
         chains ARE the recovery log. *)
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
}

(* A globally undecided update ET, indexed so a crash of its origin (the
   coordinator) can force a presumed-abort decision before the timer. *)
type decision = {
  d_origin : int;
  mutable d_done : bool;
  d_apply : commit:bool -> unit;
}

type t = {
  k : msg Replica.t;
  site_issued : int array;
      (* per-site dense ticket streams — the same interest-ordered
         sequencer as ordup.ml *)
  prng : Prng.t;
  sites : site array;
  wal : (Et.id, mset) Recovery.Wal.t;  (* durable MSet receipt journal *)
  decisions : (Et.id, decision) Hashtbl.t;
  mutable undecided : int;  (* globally undecided update ETs *)
  mutable next_saga : int;
  mutable sagas_active : int;
  mutable n_sagas : int;
  mutable n_saga_aborts : int;
  mutable n_revokes : int;
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

let wake_queries site =
  let waiting = List.rev site.parked_queries in
  site.parked_queries <- [];
  List.iter (fun p -> p.resume ()) waiting

(* --- compensation machinery --- *)

let entry_keys entry = List.map fst entry.e_ops

(* Interns each key once, for the store and, with [~log:true], for the
   site's log, which then records every op under the entry's ET. *)
let apply_entry_ops ?(log = false) site entry =
  let store = site.replica.store in
  let undos =
    List.fold_left
      (fun acc (key, op) ->
        let id = Store.intern store key in
        match Store.apply_id store id op with
        | Ok undo ->
            if log then Replica.log_id site.replica ~et:entry.e_et ~id op;
            undo :: acc
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
  let trace = t.k.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Replica.now t.k)
      (Trace.Compensation_fired { et; site = site.id; kind })

let compensate_fast t site aborted =
  t.n_fast <- t.n_fast + 1;
  trace_compensation t site aborted.e_et `Fast;
  let comp_et = t.k.env.Intf.next_et () in
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
  apply_entry_ops ~log:true site entry;
  site.log <- entry :: site.log

let compensate_full t site aborted later =
  t.n_full <- t.n_full + 1;
  trace_compensation t site aborted.e_et `Full;
  t.rollback_depth_total <- t.rollback_depth_total + List.length later;
  (* Undo the log tail physically, newest first, then the aborted entry. *)
  List.iter
    (fun entry -> List.iter (Store.rollback site.replica.store) entry.e_undos)
    later;
  List.iter (Store.rollback site.replica.store) aborted.e_undos;
  (* Replay the tail in original order, refreshing undo images. *)
  List.iter
    (fun entry ->
      apply_entry_ops site entry;
      t.n_replayed_ops <- t.n_replayed_ops + List.length entry.e_ops)
    (List.rev later);
  (* Log the repair as a compensation ET writing the restored values. *)
  let comp_et = t.k.env.Intf.next_et () in
  let store = site.replica.store in
  List.iter
    (fun key ->
      let id = Store.intern store key in
      Replica.log_id site.replica ~et:comp_et ~id (Op.Write (Store.get_id store id)))
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

let execute_entry t site entry =
  apply_entry_ops ~log:true site entry;
  List.iter (fun (key, _) -> ignore (Lock_counter.incr site.counters key)) entry.e_ops;
  site.log <- entry :: site.log;
  (* A commit decision that overtook the MSet takes effect now. *)
  match Hashtbl.find_opt site.early entry.e_et with
  | Some true ->
      Hashtbl.remove site.early entry.e_et;
      process_decision t site entry.e_et ~commit:true
  | Some false | None -> ()

let execute t site mset =
  Recovery.Wal.consume t.wal ~site:site.id ~key:mset.et;
  match Hashtbl.find_opt site.early mset.et with
  | Some false ->
      (* Aborted before it ever executed here: skip entirely. *)
      Hashtbl.remove site.early mset.et;
      t.n_skips <- t.n_skips + 1
  | Some true | None ->
      (* Union routing delivers the whole MSet to every interested site;
         each site executes (and counter-covers, and may later compensate)
         only the shards it replicates. *)
      let ops =
        List.filter
          (fun (key, _) ->
            Sharding.replicates_id t.k.env.Intf.sharding ~site:site.id
              ~id:(Keyspace.find t.k.env.Intf.keyspace key))
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
      Replica.apply t.k ~site:site.id ~et:mset.et ~n_ops:(List.length ops)
        ~order:(-1) execute_entry t site entry

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

(* Coordinator-record fan-out (Decide / Revoke) to the launch-time
   participant set.  The origin's copy bypasses the network, after every
   remote send; while the origin is down it is kept as its durable
   coordinator record and delivered at recovery. *)
let fan_coord t ~origin parts msg =
  let has_origin = ref false in
  Array.iter
    (fun dst ->
      if dst = origin then has_origin := true
      else Squeue.send t.k.fabric ~src:origin ~dst msg)
    parts;
  if !has_origin then Replica.local t.k ~site:origin msg

(* --- crash, recovery and checkpoint hooks --- *)

let drop t ~site:site_id =
  let site = t.sites.(site_id) in
  (* Durable: the replica's log, the undo/redo journal ([site.log]),
     the lock-counters and decision-bookkeeping tables (early /
     revokes / saga holds) — all coordinator-log state.  Volatile: the
     order buffer (receipt-journaled in [t.wal]), wait contexts, and
     the store image. *)
  let buffered = Hashtbl.length site.buffer in
  Hashtbl.reset site.buffer;
  let parked = site.parked_queries in
  site.parked_queries <- [];
  List.iter (fun p -> p.fail ()) parked;
  let killed = List.length site.active in
  List.iter (fun aq -> aq.aq_killed <- true) site.active;
  site.active <- [];
  (* The crashed site was the coordinator of its undecided update
     ETs: presumed abort.  The abort records reach the remotes through
     the stable queue (now, if reachable) and this site at replay
     time. *)
  let orphaned =
    Replica.orphans t.decisions (fun d ->
        d.d_origin = site_id && not d.d_done)
  in
  List.iter
    (fun (et, d) ->
      d.d_done <- true;
      Hashtbl.remove t.decisions et;
      d.d_apply ~commit:false)
    orphaned;
  {
    Replica.buffered;
    queries_failed = List.length parked + killed;
    updates_rejected = List.length orphaned;
  }

(* The kernel rebuilds the store image from the durable log (every
   mutation — provisional applies, compensations, rollback repairs — is
   logged, so the replay lands exactly on the pre-crash image the
   journal's before-image chains describe), then this re-ingests the
   journaled-but-unexecuted provisional MSets, and then the kernel
   delivers the site's own coordinator records that landed while it was
   down, in arrival order. *)
let rejoin t ~site:site_id =
  let site = t.sites.(site_id) in
  List.iter
    (fun mset -> Hashtbl.replace site.buffer mset.ticket mset)
    (Recovery.Wal.entries t.wal ~site:site_id);
  drain t site

(* The Time Warp undo/redo journal is reclaimable behind the oldest
   undecided entry: a full rollback only ever rewinds from an undecided
   entry forward, so decided entries older than every undecided one can
   never be rewound again.  In the newest-first list that is the maximal
   all-decided suffix.  After pruning, the before-image chains describe
   mutations since the cut; the checkpoint image anchors them.  Returns
   the number of entries pruned. *)
let prune_decided t ~site:id =
  let rec split = function
    | [] -> ([], 0)
    | e :: rest ->
        let keep, pruned = split rest in
        if keep = [] && e.e_decided then ([], pruned + 1)
        else (e :: keep, pruned)
  in
  let site = t.sites.(id) in
  let keep, pruned = split site.log in
  site.log <- keep;
  pruned

let create (env : Intf.env) =
  Replica.create env ~mode:Squeue.Unordered ~receive ~drop ~rejoin
    ~gc:prune_decided ~wal:(fun t -> t.wal) (fun k ->
      {
        k;
        site_issued = Array.make env.Intf.sites 0;
        prng = Prng.split env.Intf.prng;
        sites =
          Array.map
            (fun replica ->
              {
                id = replica.Replica.site;
                replica;
                last_exec = 0;
                buffer = Hashtbl.create 32;
                log = [];
                counters = Lock_counter.create ();
                early = Hashtbl.create 8;
                parked_queries = [];
                active = [];
                completed = [];
                saga_held = Hashtbl.create 8;
                pending_revokes = Hashtbl.create 8;
                ended_sagas = Hashtbl.create 8;
              })
            k.Replica.sites;
        wal =
          Recovery.Wal.create ~prof:env.Intf.obs.Esr_obs.Obs.prof
            ~sites:env.Intf.sites ();
        decisions = Hashtbl.create 32;
        undecided = 0;
        next_saga = 0;
        sagas_active = 0;
        n_sagas = 0;
        n_saga_aborts = 0;
        n_revokes = 0;
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

let kernel t = Replica.Any t.k

(* Launch one update ET (or saga step): apply optimistically everywhere,
   then simulate the global commit/abort decision after a coordination
   delay ("the system may start running MSets before the global update is
   committed", Sec 4.1). *)
let launch_step t ~origin ~saga ops ~on_decision =
  let et = t.k.env.Intf.next_et () in
  (* Participants: the union of the touched shards' replica sets (keys
     interned here so every later lookup agrees on the shard). *)
  let parts = Replica.participants t.k fst ops in
  Replica.enqueued t.k ~et ~origin fst ops;
  t.undecided <- t.undecided + 1;
  (* Per-site dense tickets, assigned in one atomic step (ordup.ml). *)
  let local = ref None in
  let propagate () =
    Array.iter
      (fun dst ->
        t.site_issued.(dst) <- t.site_issued.(dst) + 1;
        let m = { et; ticket = t.site_issued.(dst); ops; origin; saga } in
        if dst = origin then local := Some m
        else Squeue.send t.k.fabric ~src:origin ~dst (Provisional m))
      parts
  in
  Prof.span t.k.env.Intf.obs.Esr_obs.Obs.prof ~site:origin Prof.Propagate
    propagate;
  (match !local with
  | Some m -> receive t ~site:origin (Provisional m)
  | None -> ());
  let config = t.k.env.Intf.config in
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
    (Engine.schedule t.k.env.engine ~delay:config.Intf.compe_decision_delay
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
  if Replica.admit t.k ~origin intents k then
    (* Every op must be compensatable: a logical inverse or a journaled
       before-image (all our updates qualify; reads need none). *)
    ignore
      (launch_step t ~origin ~saga:None (List.map Intf.op_of_intent intents)
         ~on_decision:(fun ~et:_ ~commit ->
           if commit then Replica.commit t.k k
           else k (Intf.Rejected "global update aborted")))

(* A saga (Garcia-Molina & Salem, cited by Sec 4.2): a sequence of update
   ETs executed one after another.  Each step commits optimistically, but
   its lock-counters stay up until the entire saga ends, giving queries a
   conservative upper bound on the saga's total potential inconsistency.
   If a step's global decision is an abort, every previously committed
   step is revoked (compensated) in reverse order and the saga fails. *)
let submit_saga t ~origin steps k =
  if t.sites.(origin).replica.down then k (Intf.Rejected "origin site down")
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
          let sites = t.k.env.Intf.sites in
          let seen = Array.make sites false in
          List.iter
            (fun (_, parts) -> Array.iter (fun s -> seen.(s) <- true) parts)
            committed;
          for dst = 0 to sites - 1 do
            if seen.(dst) && dst <> origin then
              Squeue.send t.k.fabric ~src:origin ~dst (Saga_end { sid })
          done;
          if seen.(origin) then Replica.local t.k ~site:origin (Saga_end { sid });
          Replica.commit t.k finish
      | intents :: rest ->
          (* Each step is admitted as an update ET of its own: the origin
             is up (a crash would have aborted the step before) and the
             step is not empty. *)
          if Replica.admit t.k ~origin intents finish then begin
            let ops = List.map Intf.op_of_intent intents in
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
          end
    in
    run_step 1 [] steps
  end

(* A query leaves the site's active list when it is answered; a completed
   one is remembered, so that a later compensation can taint it. *)
let leave site aq = site.active <- List.filter (fun a -> a != aq) site.active

let complete site aq =
  leave site aq;
  site.completed <-
    { dq_observed = aq.aq_observed; dq_tainted = false } :: site.completed

let submit_query t ~site:site_id ~keys ~epsilon k =
  let site = t.sites.(site_id) in
  let et = t.k.env.Intf.next_et () in
  let eps = Epsilon.create epsilon in
  let started_at = Replica.now t.k in
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then begin
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
  let answer ~consistent vs =
    Replica.answer t.k k ~started_at ~charged:(Epsilon.value eps)
      ~forced:aq.aq_forced ~consistent vs
  in
  (* Strict queries take an atomic snapshot once every key is free of
     undecided provisional updates (see the same reasoning in commu.ml). *)
  if epsilon = Epsilon.Limit 0 then begin
    let rec strict_attempt () =
      if List.for_all (fun key -> Lock_counter.count site.counters key = 0) keys
      then begin
        let snapshot = Replica.read_all t.k ~site:site_id ~et keys in
        complete site aq;
        answer ~consistent:!waited snapshot
      end
      else begin
        waited := true;
        t.n_query_waits <- t.n_query_waits + 1;
        site.parked_queries <-
          {
            resume = strict_attempt;
            fail =
              (fun () ->
                leave site aq;
                answer ~consistent:false (Replica.image t.k ~site:site_id keys));
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
      answer ~consistent:false (List.rev !values)
    else
    match remaining with
    | [] ->
        complete site aq;
        answer ~consistent:!waited (List.rev !values)
    | key :: rest ->
        let pending = Lock_counter.count site.counters key in
        let admissible = pending = 0 || Epsilon.try_charge eps pending in
        if admissible then begin
          let value = Replica.read t.k ~site:site_id ~et key in
          aq.aq_observed <-
            List.sort_uniq Int.compare (undecided_on site key @ aq.aq_observed);
          values := (key, value) :: !values;
          if rest = [] then step []
          else
            ignore
              (Engine.schedule t.k.env.engine
                 ~delay:Intf.query_step_delay (fun () ->
                   step rest))
        end
        else begin
          waited := true;
          t.n_query_waits <- t.n_query_waits + 1;
          site.parked_queries <-
            {
              resume = (fun () -> step remaining);
              fail =
                (fun () ->
                  leave site aq;
                  answer ~consistent:false (List.rev !values));
            }
            :: site.parked_queries
        end
  in
  step keys
  end

let flush _ = ()

let quiescent t =
  t.undecided = 0 && t.sagas_active = 0 && t.k.deferred = []
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
    (t.undecided + t.sagas_active + List.length t.k.deferred)
    t.sites

(* Introspection for tests: the site's remaining log entries (oldest
   first).  Invariant: folding the entries' operations over an empty
   store reproduces the site's current store exactly — every store
   mutation is a log entry, which is what keeps the before-image chains
   used by full rollback accurate. *)
let log_entries t ~site =
  List.rev_map (fun e -> (e.e_et, e.e_decided, e.e_ops)) t.sites.(site).log

let stats t =
  Replica.stats t.k [
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
