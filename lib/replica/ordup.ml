(** ORDUP — ordered updates (paper §3.1).

    Update MSets carry a global order; every replica executes them in that
    order (asynchronously, buffering out-of-order arrivals), so update ETs
    are SR by construction.  Query ETs read local state freely; their
    inconsistency is the overlap with update ETs not yet executed locally
    (or executed past the query's serialization point), charged against
    the query's epsilon counter.  An exhausted counter forces the query
    onto the consistent path: it acquires its own slot in the global order
    and waits until the replica has executed exactly up to that slot —
    "the query ET is allowed to proceed only when it is running in the
    global order".

    Two ordering sources (ablation A1):
    - [`Sequencer]: a central order server issues dense tickets; a replica
      can execute ticket [t+1] the moment it arrives.
    - [`Lamport]: decentralized timestamps; a replica may execute an MSet
      only once per-origin watermarks prove no earlier-stamped MSet can
      still arrive (the delivery-order cost the paper warns about). *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Gtime = Esr_clock.Gtime
module Lamport = Esr_clock.Lamport
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type order = Ticket of int | Stamp of Gtime.t

let order_leq a b =
  match (a, b) with
  | Ticket x, Ticket y -> x <= y
  | Stamp x, Stamp y -> Gtime.compare x y <= 0
  | Ticket _, Stamp _ | Stamp _, Ticket _ ->
      invalid_arg "Ordup: mixed order kinds"

(* MSet ops carry keys pre-interned at the origin ({!Intf.iop}), so the
   per-site apply loop is an array store, not a string hash. *)
type mset = {
  et : Et.id;
  order : order;
  ops : Intf.iop list;
  origin : int;
  commit_site : int;
      (* the site whose in-order execution commits the ET: the origin when
         it replicates a touched shard (always, under full replication),
         otherwise the lowest interested replica *)
}

type msg = Update of mset | Watermark of Gtime.t

type active_query = {
  aq_order : order;
  aq_keys : string list;
  aq_eps : Epsilon.counter;
  mutable aq_failed : bool;  (* a charge was refused; fall back to SR path *)
  mutable aq_killed : bool;  (* the site crashed mid-query: finish degraded *)
}

type parked_query = {
  pq_target : order;
  pq_resume : unit -> unit;
  pq_fail : unit -> unit;  (* degraded outcome when the site crashes *)
}

type site = {
  id : int;
  replica : Replica.site;  (* durable log, store image, up/down *)
  (* sequencer mode *)
  mutable last_exec : int;
  seq_buffer : (int, mset) Hashtbl.t;
  (* lamport mode *)
  clock : Lamport.t;
  mutable lam_buffer : mset list;  (* ascending stamp order *)
  watermarks : Gtime.t array;
  mutable active : active_query list;
  mutable parked : parked_query list;
}

type t = {
  k : msg Replica.t;
  mode : [ `Sequencer | `Lamport ];
  site_issued : int array;
      (* Sequencer mode's centralized order server (§3.1: "such ordering
         can be generated easily by a centralized order server"): one
         dense ticket stream 1, 2, 3, ... per site, so a site executes
         ticket [n+1] the moment it arrives, with no gaps to wait on.
         Submission assigns every interested site its next ticket in one
         atomic step, so all streams list concurrent ETs in the same
         order; under the all-sites map every stream is the one global
         sequence. *)
  sites : site array;
  (* origin site and commit callback; the callback is volatile origin-side
     state, dropped (with a rejection) when the origin crashes *)
  pending_commits : (Et.id, int * (Intf.update_outcome -> unit)) Hashtbl.t;
  wal : (Et.id, mset) Recovery.Wal.t;  (* durable MSet receipt journal *)
  mutable n_fallbacks : int;
  mutable n_charged_units : int;
}

let meta =
  {
    Intf.name = "ORDUP";
    family = Intf.Forward;
    restriction = "message delivery";
    async_propagation = "Query only";
    sorting_time = "at update";
  }

(* --- execution at a site --- *)

let apply_ops t site mset =
  List.iter
    (fun (i : Intf.iop) ->
      (* Union routing delivers the whole MSet to every interested site;
         each site materializes only the shards it replicates. *)
      if Sharding.replicates_id t.k.env.Intf.sharding ~site:site.id ~id:i.Intf.id
      then begin
        (match Store.apply_id_unit site.replica.store i.Intf.id i.Intf.op with
        | Ok () -> ()
        | Error _ ->
            (* ORDUP imposes no operation restriction; type errors are a
               workload bug, surfaced loudly. *)
            invalid_arg
              (Printf.sprintf "ORDUP: op %s failed on %s"
                 (Op.to_string i.Intf.op) i.Intf.key));
        Replica.log_id site.replica ~et:mset.et ~id:i.Intf.id i.Intf.op
      end)
    mset.ops;
  (* Charge active queries that this update interleaves: it executes after
     the query's serialization point and touches its keys. *)
  List.iter
    (fun aq ->
      if
        (not aq.aq_failed)
        && (not (order_leq mset.order aq.aq_order))
        && List.exists
             (fun (i : Intf.iop) -> List.mem i.Intf.key aq.aq_keys)
             mset.ops
      then
        if Epsilon.try_charge aq.aq_eps 1 then
          t.n_charged_units <- t.n_charged_units + 1
        else aq.aq_failed <- true)
    site.active;
  Recovery.Wal.consume t.wal ~site:site.id ~key:mset.et;
  if mset.commit_site = site.id then
    match Hashtbl.find_opt t.pending_commits mset.et with
    | Some (_, k) ->
        Hashtbl.remove t.pending_commits mset.et;
        Replica.commit t.k k
    | None -> ()

let apply_mset t site mset =
  Replica.apply t.k ~site:site.id ~et:mset.et ~n_ops:(List.length mset.ops)
    ~order:(match mset.order with Ticket n -> n | Stamp _ -> -1)
    apply_ops t site mset

let order_reached site = function
  | Ticket n -> site.last_exec >= n
  | Stamp ts ->
      (* Every buffered MSet at or below the stamp is executed, and the
         watermarks prove nothing earlier can still arrive. *)
      Array.for_all (fun w -> Gtime.compare w ts >= 0) site.watermarks
      && not
           (List.exists (fun m ->
                match m.order with
                | Stamp s -> Gtime.compare s ts <= 0
                | Ticket _ -> false)
              site.lam_buffer)

let wake_parked site =
  let ready, still =
    List.partition (fun pq -> order_reached site pq.pq_target) site.parked
  in
  site.parked <- still;
  List.iter (fun pq -> pq.pq_resume ()) ready

let rec drain_sequencer t site =
  match Hashtbl.find_opt site.seq_buffer (site.last_exec + 1) with
  | None -> ()
  | Some mset ->
      Hashtbl.remove site.seq_buffer (site.last_exec + 1);
      site.last_exec <- site.last_exec + 1;
      apply_mset t site mset;
      drain_sequencer t site

let lam_executable site mset =
  match mset.order with
  | Stamp ts -> Array.for_all (fun w -> Gtime.compare ts w <= 0) site.watermarks
  | Ticket _ -> false

let rec drain_lamport t site =
  match site.lam_buffer with
  | head :: rest when lam_executable site head ->
      site.lam_buffer <- rest;
      apply_mset t site head;
      drain_lamport t site
  | _ :: _ | [] -> ()

let update_watermark site ~origin ts =
  if Gtime.compare ts site.watermarks.(origin) > 0 then
    site.watermarks.(origin) <- ts;
  (* The site's own watermark follows its clock: its next stamp will be
     strictly larger than the current peek. *)
  Gtime.witness site.clock ts;
  site.watermarks.(site.id) <-
    Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id

let insert_sorted mset buffer =
  let stamp m =
    match m.order with Stamp s -> s | Ticket _ -> assert false
  in
  let rec insert = function
    | [] -> [ mset ]
    | head :: rest as all ->
        if Gtime.compare (stamp mset) (stamp head) < 0 then mset :: all
        else head :: insert rest
  in
  insert buffer

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  (match msg with
  | Update mset ->
      (* Journal the receipt before it enters the volatile order buffer:
         the transport acked it, so the journal is now the only durable
         copy the site holds until the MSet is applied. *)
      Recovery.Wal.append t.wal ~site:site_id ~key:mset.et mset;
      (match (t.mode, mset.order) with
      | `Sequencer, Ticket n ->
          Hashtbl.replace site.seq_buffer n mset;
          drain_sequencer t site
      | `Lamport, Stamp ts ->
          update_watermark site ~origin:mset.origin ts;
          site.lam_buffer <- insert_sorted mset site.lam_buffer;
          drain_lamport t site
      | (`Sequencer | `Lamport), _ -> assert false)
  | Watermark ts ->
      update_watermark site ~origin:ts.Gtime.site ts;
      drain_lamport t site);
  wake_parked site

(* --- crash and recovery hooks --- *)

let drop t ~site:site_id =
  let site = t.sites.(site_id) in
  (* Volatile order buffers are gone; the receipt journal ([t.wal]) keeps
     the only durable copy of what they held. *)
  let buffered =
    Hashtbl.length site.seq_buffer + List.length site.lam_buffer
  in
  Hashtbl.reset site.seq_buffer;
  site.lam_buffer <- [];
  (* Parked queries fail immediately with a degraded answer; active
     queries are killed and finish degraded at their next step. *)
  let parked = site.parked in
  site.parked <- [];
  List.iter (fun pq -> pq.pq_fail ()) parked;
  let killed = List.length site.active in
  List.iter (fun aq -> aq.aq_killed <- true) site.active;
  site.active <- [];
  (* Origin-side commit callbacks are volatile: clients of this site
     get a rejection.  The MSets themselves are already in the stable
     fabric and still commit everywhere (including here, after
     recovery). *)
  let orphaned =
    Replica.orphans t.pending_commits (fun (origin, _) -> origin = site_id)
  in
  List.iter
    (fun (et, (_, k)) ->
      Hashtbl.remove t.pending_commits et;
      k (Intf.Rejected "origin site crashed"))
    orphaned;
  {
    Replica.buffered;
    queries_failed = List.length parked + killed;
    updates_rejected = List.length orphaned;
  }

(* After the kernel replays the durable log (checkpoint + tail when the
   run checkpoints), the journaled but unapplied MSets go back into the
   order buffers.  The stable-queue backlog redelivers everything else.
   Unapplied MSets straddling a cut stay in the receipt journal, so the
   cut has nothing of ORDUP's to reclaim. *)
let rejoin t ~site:site_id =
  let site = t.sites.(site_id) in
  List.iter
    (fun mset ->
      match (t.mode, mset.order) with
      | `Sequencer, Ticket n -> Hashtbl.replace site.seq_buffer n mset
      | `Lamport, Stamp ts ->
          update_watermark site ~origin:mset.origin ts;
          site.lam_buffer <- insert_sorted mset site.lam_buffer
      | (`Sequencer | `Lamport), _ -> assert false)
    (Recovery.Wal.entries t.wal ~site:site_id);
  (match t.mode with
  | `Sequencer -> drain_sequencer t site
  | `Lamport -> drain_lamport t site);
  wake_parked site

(* --- public interface --- *)

let create (env : Intf.env) =
  Replica.create env ~mode:Squeue.Fifo ~receive ~drop ~rejoin
    ~wal:(fun t -> t.wal) (fun k ->
      {
        k;
        mode = env.Intf.config.Intf.ordup_ordering;
        site_issued = Array.make env.Intf.sites 0;
        sites =
          Array.map
            (fun replica ->
              {
                id = replica.Replica.site;
                replica;
                last_exec = 0;
                seq_buffer = Hashtbl.create 32;
                clock = Lamport.create ();
                lam_buffer = [];
                watermarks = Array.make env.Intf.sites Gtime.zero;
                active = [];
                parked = [];
              })
            k.Replica.sites;
        pending_commits = Hashtbl.create 32;
        wal =
          Recovery.Wal.create ~prof:env.Intf.obs.Esr_obs.Obs.prof
            ~sites:env.Intf.sites ();
        n_fallbacks = 0;
        n_charged_units = 0;
      })

let kernel t = Replica.Any t.k

let submit_update t ~origin intents k =
  if Replica.admit t.k ~origin intents k then begin
    let env = t.k.env in
    let et = env.Intf.next_et () in
    let ops = List.map (Intf.iop_of_intent env.Intf.keyspace) intents in
    (* Interest routing: the MSet goes to the sites replicating a touched
       shard — every site under the all-sites map. *)
    let c = Replica.route t.k Intf.iop_key ops in
    let commit_site =
      if Sharding.Dests.mem c origin then origin
      else begin
        let first = ref (-1) in
        Sharding.Dests.iter c (fun s -> if !first < 0 then first := s);
        !first
      end
    in
    Replica.enqueued t.k ~et ~origin Intf.iop_key ops;
    Hashtbl.replace t.pending_commits et (origin, k);
    (* Remote sites get their message through the stable queues; the
       origin takes its own directly (local enqueue is not subject to the
       network). *)
    let local = ref None in
    let propagate () =
      match t.mode with
      | `Sequencer ->
          (* Each interested site gets the next ticket of its own stream,
             all assigned here in one atomic step. *)
          Sharding.Dests.iter c (fun dst ->
              t.site_issued.(dst) <- t.site_issued.(dst) + 1;
              let m =
                Update
                  { et; order = Ticket t.site_issued.(dst); ops; origin;
                    commit_site }
              in
              if dst = origin then local := Some m
              else Squeue.send t.k.fabric ~src:origin ~dst m)
      | `Lamport ->
          (* Interested sites get the MSet; everyone else still needs the
             stamp as a watermark, or their delivery-order proof (and any
             parked SR query) would stall until the final flush. *)
          let stamp = Gtime.next t.sites.(origin).clock ~site:origin in
          let mset = Update { et; order = Stamp stamp; ops; origin; commit_site } in
          for dst = 0 to env.Intf.sites - 1 do
            let m = if Sharding.Dests.mem c dst then mset else Watermark stamp in
            if dst = origin then local := Some m
            else Squeue.send t.k.fabric ~src:origin ~dst m
          done
    in
    Prof.span env.Intf.obs.Esr_obs.Obs.prof ~site:origin Prof.Propagate
      propagate;
    match !local with Some m -> receive t ~site:origin m | None -> ()
  end

(* The query's serialization point: everything ordered at or before this
   is "the past" the query should see. *)
let query_order t site =
  match t.mode with
  | `Sequencer ->
      (* Each site executes its own dense stream, so the serialization
         point is the last ticket issued FOR this site. *)
      Ticket t.site_issued.(site.id)
  | `Lamport -> Stamp (Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id)

(* Updates ordered before the query's point but not yet executed locally:
   the query's initial overlap. *)
let missing_before site = function
  | Ticket n -> Stdlib.max 0 (n - site.last_exec)
  | Stamp ts ->
      List.length
        (List.filter
           (fun m ->
             match m.order with
             | Stamp s -> Gtime.compare s ts <= 0
             | Ticket _ -> false)
           site.lam_buffer)

let submit_query t ~site:site_id ~keys ~epsilon k =
  let et = t.k.env.Intf.next_et () in
  let started_at = Replica.now t.k in
  if Replica.open_query t.k ~site:site_id ~keys ~started_at k then begin
  let site = t.sites.(site_id) in
  let eps = Epsilon.create epsilon in
  let finish ~charged ~consistent values =
    Replica.answer t.k k ~started_at ~charged ~forced:0 ~consistent values
  in
  let consistent_path () =
    t.n_fallbacks <- t.n_fallbacks + 1;
    let target = query_order t site in
    let resume () =
      finish ~charged:(Epsilon.value eps) ~consistent:true
        (Replica.read_all t.k ~site:site_id ~et keys)
    in
    let fail () =
      (* The site crashed while the query waited: its volatile context is
         gone, so answer degraded from whatever the site last held. *)
      finish ~charged:(Epsilon.value eps) ~consistent:false
        (Replica.image t.k ~site:site_id keys)
    in
    if order_reached site target then resume ()
    else
      site.parked <-
        { pq_target = target; pq_resume = resume; pq_fail = fail } :: site.parked
  in
  let q_order = query_order t site in
  let missing = missing_before site q_order in
  let can_start = missing = 0 || Epsilon.try_charge eps missing in
  if not can_start then consistent_path ()
  else begin
    t.n_charged_units <- t.n_charged_units + missing;
    let aq =
      {
        aq_order = q_order;
        aq_keys = keys;
        aq_eps = eps;
        aq_failed = false;
        aq_killed = false;
      }
    in
    site.active <- aq :: site.active;
    (* The query's inconsistency window, for the auditor's overlap
       reconstruction: serialization point, lump charge, read set at open;
       final charge and exit path at close.  Ticket orders only — Lamport
       stamps have no integer point to reconstruct against. *)
    let trace = t.k.env.Intf.obs.Esr_obs.Obs.trace in
    let w = t.k.queries in
    let windowed = Trace.on trace && (match q_order with Ticket _ -> true | Stamp _ -> false) in
    if windowed then begin
      match q_order with
      | Ticket point ->
          Trace.emit trace ~time:(Replica.now t.k)
            (Trace.Query_window { w; site = site_id; point; missing; keys })
      | Stamp _ -> ()
    end;
    let close outcome =
      if windowed then
        Trace.emit trace ~time:(Replica.now t.k)
          (Trace.Query_window_closed
             { w; site = site_id; charged = Epsilon.value eps; outcome })
    in
    let values = ref [] in
    let rec step remaining =
      if aq.aq_killed then begin
        (* Crash mid-query: the remaining reads cannot happen; serve what
           was gathered, marked as the degraded (non-SR) path. *)
        close `Killed;
        finish ~charged:(Epsilon.value eps) ~consistent:false (List.rev !values)
      end
      else if aq.aq_failed then begin
        site.active <- List.filter (fun a -> a != aq) site.active;
        close `Fallback;
        consistent_path ()
      end
      else
        match remaining with
        | [] ->
            site.active <- List.filter (fun a -> a != aq) site.active;
            close `Ok;
            finish ~charged:(Epsilon.value eps) ~consistent:false
              (List.rev !values)
        | key :: rest ->
            values := (key, Replica.read t.k ~site:site_id ~et key) :: !values;
            if rest = [] then step []
            else
              ignore
                (Engine.schedule t.k.env.engine
                   ~delay:Intf.query_step_delay (fun () ->
                     step rest))
    in
    step keys
  end
  end

let flush t =
  match t.mode with
  | `Sequencer -> ()
  | `Lamport ->
      Array.iter
        (fun site ->
          let ts =
            Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.id
          in
          site.watermarks.(site.id) <- ts;
          Squeue.broadcast t.k.fabric ~src:site.id (Watermark ts);
          drain_lamport t site;
          wake_parked site)
        t.sites

let quiescent t =
  Array.for_all
    (fun site ->
      Hashtbl.length site.seq_buffer = 0
      && site.lam_buffer = [] && site.parked = [] && site.active = [])
    t.sites
  && Hashtbl.length t.pending_commits = 0

let backlog t =
  Array.fold_left
    (fun acc site ->
      acc + Hashtbl.length site.seq_buffer + List.length site.lam_buffer
      + List.length site.parked + List.length site.active)
    (Hashtbl.length t.pending_commits)
    t.sites

let stats t =
  Replica.stats t.k
    [
      ("consistent_fallbacks", float_of_int t.n_fallbacks);
      ("charged_units", float_of_int t.n_charged_units);
    ]
