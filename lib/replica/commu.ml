(** COMMU — commutative operations (paper §3.2).

    Update MSets contain only mutually commutative operations (additive
    deltas here), so replicas may apply them in any arrival order and
    still converge: updates are ordered "at their completion time".
    Both queries and updates propagate asynchronously (Table 1).

    Divergence bounding uses per-object lock-counters: a site increments
    an object's counter when it applies an update MSet and decrements it
    when the update ET *completes* globally (all replicas applied it — the
    origin collects acks and broadcasts a completion notice).  A non-zero
    counter is in-flight inconsistency: a query reading the object is
    charged that many units, and an exhausted epsilon makes it wait for
    the counters to drain.  An optional update-side limit (§3.2's "the
    update ET trying to write must either wait or abort") gives
    back-pressure, swept by experiment E7. *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Lock_counter = Esr_cc.Lock_counter
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Prof = Esr_obs.Prof

(* Ops carry keys pre-interned at the origin ({!Intf.iop}); the string
   name rides along for the lock counters and the durable log. *)
type mset = { et : Et.id; ops : Intf.iop list; origin : int }

(* Pending |delta| an operation contributes to its object's weight. *)
let op_weight = function
  | Op.Incr d -> Float.abs (float_of_int d)
  | Op.Read | Op.Write _ | Op.Mult _ | Op.Div _ | Op.Timed_write _ | Op.Append _
    -> 0.0

type msg =
  | Apply of mset
  | Applied of { et : Et.id; by : int }  (** ack back to the origin *)
  | Complete of { et : Et.id; charges : (string * float) list }

(* A parked continuation: [resume] when the counters drain, [fail] when
   the site crashes and the volatile wait context is lost. *)
type parked = { resume : unit -> unit; fail : unit -> unit }

(* Registration for an in-step (not parked) query so a crash can reach it:
   the scheduled step checks [killed] and finishes degraded. *)
type active_q = { mutable killed : bool }

type site = {
  id : int;
  replica : Replica.site;  (* durable log, store image, up/down *)
  counters : Lock_counter.t;
      (* derivable from the durable log (applied-but-uncompleted ETs), so
         recovery keeps them: modelled as durable *)
  mutable parked_queries : parked list;
  mutable parked_updates : parked list;
  mutable active_queries : active_q list;
}

(* Origin-side record of an update ET awaiting acks from all replicas. *)
type inflight = { charges : (string * float) list; mutable waiting_acks : int }

type t = {
  k : msg Replica.t;
  sites : site array;
  inflight : (Et.id, inflight) Hashtbl.t;
  mutable n_query_waits : int;
  mutable n_update_waits : int;
  mutable n_charged_units : int;
}

let meta =
  {
    Intf.name = "COMMU";
    family = Intf.Forward;
    restriction = "operation semantics";
    async_propagation = "Query & Update";
    sorting_time = "doesn't matter";
  }

let wake_queries site =
  let waiting = List.rev site.parked_queries in
  site.parked_queries <- [];
  List.iter (fun p -> p.resume ()) waiting

let wake_updates site =
  let waiting = List.rev site.parked_updates in
  site.parked_updates <- [];
  List.iter (fun p -> p.resume ()) waiting

let apply_ops t site mset =
  List.iter
    (fun (i : Intf.iop) ->
      (* A site executes only the ops on keys it replicates (with the
         all-sites map every op qualifies). *)
      if Sharding.replicates_id t.k.env.Intf.sharding ~site:site.id ~id:i.Intf.id
      then begin
        let key = i.Intf.key in
        ignore (Lock_counter.incr site.counters key);
        ignore (Lock_counter.add_weight site.counters key (op_weight i.Intf.op));
        (match Store.apply_id_unit site.replica.store i.Intf.id i.Intf.op with
        | Ok () -> ()
        | Error _ -> invalid_arg "COMMU: commutative op failed to apply");
        Replica.log_id site.replica ~et:mset.et ~id:i.Intf.id i.Intf.op
      end)
    mset.ops

let apply_mset t site mset =
  Replica.apply t.k ~site:site.id ~et:mset.et ~n_ops:(List.length mset.ops)
    ~order:(-1) apply_ops t site mset

let charges_of ops =
  List.map (fun (i : Intf.iop) -> (i.Intf.key, op_weight i.Intf.op)) ops

let complete_at t site charges =
  List.iter
    (fun (key, w) ->
      (* Only counters this site actually raised (it applied only the
         replicated subset of the MSet). *)
      if
        Sharding.replicates_id t.k.env.Intf.sharding ~site:site.id
          ~id:(Keyspace.find t.k.env.Intf.keyspace key)
      then begin
        ignore (Lock_counter.decr site.counters key);
        ignore (Lock_counter.remove_weight site.counters key w)
      end)
    charges;
  wake_queries site;
  wake_updates site

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Apply mset ->
      apply_mset t site mset;
      Squeue.send t.k.fabric ~src:site_id ~dst:mset.origin
        (Applied { et = mset.et; by = site_id })
  | Applied { et; by = _ } -> (
      match Hashtbl.find_opt t.inflight et with
      | None -> ()
      | Some record ->
          record.waiting_acks <- record.waiting_acks - 1;
          if record.waiting_acks = 0 then begin
            Hashtbl.remove t.inflight et;
            let complete = Complete { et; charges = record.charges } in
            (* Interest set of the ET, rebuilt from its charge keys. *)
            Squeue.multicast t.k.fabric ~src:site_id
              ~dests:(Replica.route t.k fst record.charges)
              complete;
            complete_at t site record.charges
          end)
  | Complete { et = _; charges } -> complete_at t site charges

let drop t ~site:site_id =
  let site = t.sites.(site_id) in
  (* COMMU applies MSets on receipt, so there is no order buffer to
     lose.  The lock counters and origin-side ack tables are derivable
     from the durable log (applied-but-uncompleted ETs) — classic
     coordinator-log state — so they survive; acks and completions
     blocked by the outage arrive through the stable-queue backlog
     after recovery.  What dies is the wait contexts: parked and
     in-step queries answer degraded, parked (never-applied) updates
     are rejected. *)
  let pq = site.parked_queries and pu = site.parked_updates in
  site.parked_queries <- [];
  site.parked_updates <- [];
  List.iter (fun p -> p.fail ()) pq;
  List.iter (fun p -> p.fail ()) pu;
  let killed = List.length site.active_queries in
  List.iter (fun aq -> aq.killed <- true) site.active_queries;
  site.active_queries <- [];
  {
    Replica.buffered = 0;
    queries_failed = List.length pq + killed;
    updates_rejected = List.length pu;
  }

(* COMMU applies on receipt, so it keeps no receipt journal: the durable
   log plus the completion protocol is its whole recovery story. *)
let create (env : Intf.env) =
  Replica.create env ~mode:Squeue.Unordered ~receive ~drop (fun k ->
      {
        k;
        sites =
          Array.map
            (fun replica ->
              {
                id = replica.Replica.site;
                replica;
                counters = Lock_counter.create ();
                parked_queries = [];
                parked_updates = [];
                active_queries = [];
              })
            k.Replica.sites;
        inflight = Hashtbl.create 32;
        n_query_waits = 0;
        n_update_waits = 0;
        n_charged_units = 0;
      })

let kernel t = Replica.Any t.k

(* The additive class is COMMU's Table 1 restriction: Set and Mul do not
   commute with it. *)
let refusal intents =
  List.find_map
    (function
      | Intf.Add _ -> None
      | Intf.Set (k, _) ->
          Some (Printf.sprintf "COMMU: Set on %s is not commutative" k)
      | Intf.Mul (k, _) ->
          Some
            (Printf.sprintf
               "COMMU: Mul on %s does not commute with the additive class" k))
    intents

let submit_update t ~origin intents k =
  if Replica.admit t.k ~origin ?refused:(refusal intents) intents k then begin
    let env = t.k.env in
    let ops = List.map (Intf.iop_of_intent env.Intf.keyspace) intents in
    let et = env.Intf.next_et () in
    let site = t.sites.(origin) in
    let keys = List.map Intf.iop_key ops in
    let charges = charges_of ops in
    (* An ET whose own |delta| exceeds the value limit can never be
       admitted; waiting would hang it forever. *)
    let impossible =
      match env.Intf.config.Intf.commu_value_limit with
      | None -> false
      | Some limit -> List.exists (fun (_, w) -> w > limit +. 1e-9) charges
    in
    if impossible then
      Replica.reject t.k k "COMMU: update exceeds the value limit outright"
    else
    let rec attempt () =
      let count_exceeds =
        match env.Intf.config.Intf.commu_update_limit with
        | None -> false
        | Some limit ->
            List.exists
              (fun key -> Lock_counter.would_exceed site.counters key ~limit)
              keys
      in
      let value_exceeds =
        match env.Intf.config.Intf.commu_value_limit with
        | None -> false
        | Some limit ->
            List.exists
              (fun (key, w) ->
                Lock_counter.weight_would_exceed site.counters key ~added:w
                  ~limit)
              charges
      in
      if count_exceeds || value_exceeds then
        match env.Intf.config.Intf.commu_limit_policy with
        | `Abort ->
            Replica.reject t.k k
              (if value_exceeds then "COMMU: value limit reached"
               else "COMMU: lock-counter limit reached")
        | `Wait ->
            t.n_update_waits <- t.n_update_waits + 1;
            let fail () =
              (* The site crashed while the update waited for its
                 counters; the wait context is volatile, so the client
                 gets a rejection (the ET never applied anywhere). *)
              Replica.reject t.k k "COMMU: origin site crashed while waiting"
            in
            site.parked_updates <-
              { resume = attempt; fail } :: site.parked_updates
      else begin
        let mset = { et; ops; origin } in
        Replica.enqueued t.k ~et ~origin Intf.iop_key ops;
        apply_mset t site mset;
        (* Interest routing: the MSet travels only to sites replicating
           a touched shard.  With the all-sites map that is everybody. *)
        let c = Replica.route t.k Intf.iop_key ops in
        let n_remote =
          if Sharding.Dests.mem c origin then Sharding.Dests.count c - 1
          else Sharding.Dests.count c
        in
        if n_remote > 0 then begin
          Hashtbl.replace t.inflight et { charges; waiting_acks = n_remote };
          Prof.span env.Intf.obs.Esr_obs.Obs.prof ~site:origin
            Prof.Propagate (fun () ->
              Squeue.multicast t.k.fabric ~src:origin ~dests:c (Apply mset))
        end
        else complete_at t site charges;
        (* The update ET commits locally and propagates asynchronously. *)
        Replica.commit t.k k
      end
    in
    attempt ()
  end

let submit_query t ~site:site_id ~keys ~epsilon k =
  let site = t.sites.(site_id) in
  let et = t.k.env.Intf.next_et () in
  let eps = Epsilon.create epsilon in
  let started_at = Replica.now t.k in
  let waited = ref false in
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then
  (* A strictly serializable query must see an atomic snapshot: since
     MSets apply atomically per site, it suffices to wait until every key
     is simultaneously free of in-flight updates and read them all in one
     event (stepping key by key would splice different serialization
     points together). *)
  if epsilon = Epsilon.Limit 0 then begin
    let rec strict_attempt () =
      if List.for_all (fun key -> Lock_counter.count site.counters key = 0) keys
      then
        Replica.answer t.k k ~started_at ~charged:0 ~forced:0
          ~consistent:!waited (Replica.read_all t.k ~site:site_id ~et keys)
      else begin
        waited := true;
        t.n_query_waits <- t.n_query_waits + 1;
        let fail () =
          (* Crash while waiting for a clean snapshot: answer degraded
             from whatever the site last held. *)
          Replica.answer t.k k ~started_at ~charged:0 ~forced:0
            ~consistent:false (Replica.image t.k ~site:site_id keys)
        in
        site.parked_queries <-
          { resume = strict_attempt; fail } :: site.parked_queries
      end
    in
    strict_attempt ()
  end
  else begin
  let aq = { killed = false } in
  site.active_queries <- aq :: site.active_queries;
  let finish ~consistent vs =
    site.active_queries <- List.filter (fun a -> a != aq) site.active_queries;
    Replica.answer t.k k ~started_at ~charged:(Epsilon.value eps) ~forced:0
      ~consistent vs
  in
  let values = ref [] in
  let rec step remaining =
    if aq.killed then
      (* Crash mid-query: serve what was gathered, degraded. *)
      finish ~consistent:false (List.rev !values)
    else
    match remaining with
    | [] -> finish ~consistent:!waited (List.rev !values)
    | key :: rest ->
        let pending = Lock_counter.count site.counters key in
        let admissible = pending = 0 || Epsilon.try_charge eps pending in
        if admissible then begin
          if pending > 0 then t.n_charged_units <- t.n_charged_units + pending;
          values := (key, Replica.read t.k ~site:site_id ~et key) :: !values;
          if rest = [] then step []
          else
            ignore
              (Engine.schedule t.k.env.engine
                 ~delay:Intf.query_step_delay (fun () ->
                   step rest))
        end
        else begin
          (* Too much in-flight inconsistency on this object: wait for
             completions to drain the counter. *)
          waited := true;
          t.n_query_waits <- t.n_query_waits + 1;
          site.parked_queries <-
            {
              resume = (fun () -> step remaining);
              fail = (fun () -> finish ~consistent:false (List.rev !values));
            }
            :: site.parked_queries
        end
  in
  step keys
  end

let flush _ = ()

let quiescent t =
  Hashtbl.length t.inflight = 0
  && Array.for_all
       (fun site ->
         site.parked_queries = [] && site.parked_updates = []
         && site.active_queries = []
         && Lock_counter.total_nonzero site.counters = 0)
       t.sites

let backlog t =
  Array.fold_left
    (fun acc site ->
      acc + List.length site.parked_queries + List.length site.parked_updates
      + List.length site.active_queries)
    (Hashtbl.length t.inflight)
    t.sites

let stats t =
  Replica.stats t.k
    [
      ("rejected", float_of_int t.k.rejected);
      ("query_waits", float_of_int t.n_query_waits);
      ("update_waits", float_of_int t.n_update_waits);
      ("charged_units", float_of_int t.n_charged_units);
    ]
