(* The benchmark's workloads and their input generator.

   Every arrival (virtual time, origin site, keys, operand draws) is
   generated here from the seed before any set-up clock starts, so the
   program under test only ever receives generated inputs.  Arrivals are
   an open loop in virtual time at fixed rates, independent of how fast
   the host simulates them: [rate * horizon] arrivals at uniformly random
   times (a Poisson process conditioned on its count, so every seed asks
   for the same volume of work), or evenly spaced.  On the host side each
   workload is a fixed batch, so throughput is work completed per host
   second.

   Fault plans, checkpoint cadence and the 2PC timeout belong to the
   workload: [--seed] moves arrivals and keys only, and [--scale]
   stretches the whole virtual timeline (horizon, faults, checkpoints and
   timeout) while rates stay fixed. *)

module Intf = Esr_replica.Intf
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Schedule = Esr_fault.Schedule
module Value = Esr_store.Value

type t = {
  name : string;
  why : string;
  methods : string list;
  sites : int;
  n_keys : int;
  zipf_theta : float;
  horizon : float;  (** virtual ms of arrivals at scale 1 *)
  update_rate : float;  (** update ETs per virtual ms *)
  periodic : bool;  (** evenly spaced update arrivals *)
  ops : int;  (** operations per update ET, additive methods *)
  blind_ops : int;  (** operations per update ET, blind-set methods *)
  query_rate : float;  (** queries per virtual ms *)
  keys_per_query : int;
  epsilon : int option;  (** [None]: unlimited *)
  ring : (int * int) option;  (** ring placement: shards, copies *)
  faults : (float * Schedule.action) list;  (** at a fraction of horizon *)
  checkpoint_ms : float option;  (** cut interval at scale 1 *)
  backoff : bool;  (** [Squeue.default_backoff] instead of fixed 50 ms *)
  twopc_timeout : float;  (** virtual ms at scale 1 *)
  audited : bool;  (** tracing on and the auditor tapped, in every run *)
}

let base =
  {
    name = "";
    why = "";
    methods = [ "ORDUP"; "COMMU"; "RITU"; "QUASI" ];
    sites = 4;
    n_keys = 16;
    zipf_theta = 0.6;
    horizon = 1_000.0;
    update_rate = 0.0;
    periodic = false;
    ops = 2;
    blind_ops = 2;
    query_rate = 0.0;
    keys_per_query = 1;
    epsilon = None;
    ring = None;
    faults = [];
    checkpoint_ms = None;
    backoff = false;
    twopc_timeout = Intf.default_config.Intf.twopc_timeout;
    audited = false;
  }

let all =
  [
    {
      base with
      name = "fanout_full";
      why =
        "64 sites, full replication: every update reaches every site, so \
         engine dispatch, net delivery and squeue fanout dominate";
      sites = 64;
      n_keys = 20_000;
      horizon = 2_000.0;
      update_rate = 0.5;
      query_rate = 0.005;
    };
    {
      base with
      name = "sharded_rw";
      why =
        "200 sites, ring placement x3: routed writes beside epsilon-bounded \
         reads, so sharding, query re-homing and per-site stores do the work";
      sites = 200;
      n_keys = 4_096;
      horizon = 10_000.0;
      update_rate = 1.0;
      query_rate = 1.0;
      keys_per_query = 2;
      epsilon = Some 4;
      ring = Some (200, 3);
    };
    {
      base with
      name = "sync_partition";
      why =
        "2PC and QUORUM through crashes and a partition: the only workload \
         where locks, waits and aborts do the work";
      methods = [ "2PC"; "QUORUM" ];
      sites = 8;
      n_keys = 256;
      (* Uniform keys: under Zipf skew 2PC's host time varied up to 2x
         across seeds (its cost grows faster than linearly with the backlog
         of blocked transactions), too wide for any useful bound. *)
      zipf_theta = 0.0;
      horizon = 18_000.0;
      update_rate = 0.2;
      blind_ops = 1;
      query_rate = 0.2;
      keys_per_query = 2;
      epsilon = Some 4;
      faults =
        Schedule.
          [
            (0.1, Crash 1);
            (0.25, Recover 1);
            (0.4, Partition [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ]);
            (0.55, Heal);
            (0.7, Crash 7);
            (0.78, Recover 7);
          ];
      checkpoint_ms = Some 2_000.0;
      backoff = true;
      twopc_timeout = 30_000.0;
    };
    {
      base with
      name = "audited_soak";
      why =
        "all 7 methods over 2.4 virtual hours of faults with checkpoints, \
         tracing and the auditor on: timers, retransmission, GC and replay";
      methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE"; "2PC"; "QUORUM"; "QUASI" ];
      sites = 4;
      n_keys = 16;
      horizon = 8_640_000.0;
      (* One update every 4,500 virtual ms, as E18 spaces its soak: the
         retransmission storm grows with the updates pending in each fault
         window, so with random arrival times the number of engine events
         varied by up to a quarter across seeds. *)
      update_rate = 1.0 /. 4_500.0;
      periodic = true;
      ops = 1;
      blind_ops = 1;
      (* Four crash and two partition windows, 1-2% of the horizon each,
         all healed by 80% and none on the horizon/96 checkpoint grid. *)
      faults =
        Schedule.
          [
            (0.1, Crash 1);
            (0.115, Recover 1);
            (0.22, Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
            (0.24, Heal);
            (0.35, Crash 2);
            (0.362, Recover 2);
            (0.505, Crash 3);
            (0.523, Recover 3);
            (0.63, Partition [ [ 0 ]; [ 1; 2; 3 ] ]);
            (0.645, Heal);
            (0.78, Crash 0);
            (0.796, Recover 0);
          ];
      checkpoint_ms = Some 90_000.0;
      (* Longer than any fault window, so 2PC blocks through a window
         instead of timing out into a storm of client retries. *)
      twopc_timeout = 345_600.0;
      audited = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

(* RITU and QUORUM accept only timestamped overwrites; every other method
   gets commutative increments of the same keys. *)
let blind_set method_name = method_name = "RITU" || method_name = "QUORUM"

let horizon w ~scale = w.horizon *. scale

let plan w ~scale =
  let h = horizon w ~scale in
  Schedule.make
    (List.map (fun (f, action) -> { Schedule.at = f *. h; action }) w.faults)

let checkpoint_interval w ~scale = Option.map (fun ms -> ms *. scale) w.checkpoint_ms
let twopc_timeout w ~scale = w.twopc_timeout *. scale

let key_name rank = Printf.sprintf "k%05d" rank

type update = { u_at : float; origin : int; intents : Intf.intent list }
type query = { q_at : float; site : int; keys : string list }

type inputs = {
  keys : string array;  (** every key name, sorted *)
  updates : (string * update array) list;  (** per method, same arrivals *)
  queries : query array;
  plan : Schedule.t;
}

(* Sites crashed at virtual time [at] under the plan.  Clients submit
   only to live sites, as a client of a crashed server would fail over;
   work caught in flight by a crash still meets it. *)
let down_at plan at =
  List.fold_left
    (fun down { Schedule.at = t; action } ->
      if t > at then down
      else
        match action with
        | Schedule.Crash s -> s :: down
        | Schedule.Recover s -> List.filter (( <> ) s) down
        | Schedule.Partition _ | Schedule.Heal -> down)
    [] (Schedule.steps plan)

let live_site prng plan ~sites at =
  match down_at plan at with
  | [] -> Prng.int prng sites
  | down ->
      let live =
        Array.of_list
          (List.filter (fun s -> not (List.mem s down)) (List.init sites Fun.id))
      in
      Prng.choose prng live

let arrivals ?(periodic = false) prng ~rate ~until =
  let n = int_of_float (rate *. until) in
  if periodic then List.init n (fun i -> (float_of_int i +. 0.5) /. rate)
  else List.sort Float.compare (List.init n (fun _ -> Prng.float prng until))

let generate w ~seed ~scale =
  let until = horizon w ~scale in
  let plan = plan w ~scale in
  let keys = Array.init w.n_keys key_name in
  let zipf = Dist.Zipf.create ~n:w.n_keys ~theta:w.zipf_theta in
  let root = Prng.create seed in
  let up = Prng.split root and qp = Prng.split root in
  let pick prng = keys.(Dist.Zipf.sample zipf prng) in
  (* Distinct keys per update ET; under heavy skew a few redraws, then
     accept the repeat (methods tolerate duplicate keys in one ET). *)
  let rec distinct prng n acc tries =
    if n = 0 then List.rev acc
    else
      let k = pick prng in
      if List.mem k acc && tries < 8 then distinct prng n acc (tries + 1)
      else distinct prng (n - 1) (k :: acc) 0
  in
  let n_ops = Stdlib.max w.ops w.blind_ops in
  let drawn =
    List.map
      (fun at ->
        let origin = live_site up plan ~sites:w.sites at in
        let ks = distinct up n_ops [] 0 in
        (at, origin, List.map (fun k -> (k, Prng.int up 1000)) ks))
      (arrivals ~periodic:w.periodic up ~rate:w.update_rate ~until)
  in
  let updates =
    List.map
      (fun m ->
        let blind = blind_set m in
        let n = if blind then w.blind_ops else w.ops in
        let intents ops =
          List.filteri (fun i _ -> i < n) ops
          |> List.map (fun (k, r) ->
                 if blind then Intf.Set (k, Value.Int r)
                 else Intf.Add (k, 1 + (r mod 10)))
        in
        ( m,
          Array.of_list
            (List.map
               (fun (u_at, origin, ops) -> { u_at; origin; intents = intents ops })
               drawn) ))
      w.methods
  in
  let queries =
    Array.of_list
      (List.map
         (fun q_at ->
           let site = live_site qp plan ~sites:w.sites q_at in
           let keys =
             List.sort_uniq String.compare
               (List.init w.keys_per_query (fun _ -> pick qp))
           in
           { q_at; site; keys })
         (arrivals qp ~rate:w.query_rate ~until))
  in
  { keys; updates; queries; plan }

(* Parameters recorded with every result line: two lines compare only
   when these agree. *)
let params w ~scale =
  let module J = Esr_util.Json in
  let num f = J.Num f and int i = J.Num (float_of_int i) in
  J.Obj
    [
      ("methods", J.Arr (List.map (fun m -> J.Str m) w.methods));
      ("sites", int w.sites);
      ("keys", int w.n_keys);
      ("zipf_theta", num w.zipf_theta);
      ("horizon_ms", num (horizon w ~scale));
      ("scale", num scale);
      ("update_rate", num w.update_rate);
      ("arrivals", J.Str (if w.periodic then "periodic" else "uniform_batch"));
      ("ops_per_update", int w.ops);
      ("blind_ops_per_update", int w.blind_ops);
      ("query_rate", num w.query_rate);
      ("keys_per_query", int w.keys_per_query);
      ("epsilon", match w.epsilon with Some e -> int e | None -> J.Null);
      ( "placement",
        match w.ring with
        | Some (shards, copies) ->
            J.Str (Printf.sprintf "ring:%d shards x %d copies" shards copies)
        | None -> J.Str "full" );
      ("faults", J.Str (Schedule.to_spec (plan w ~scale)));
      ( "checkpoint_ms",
        match checkpoint_interval w ~scale with Some i -> num i | None -> J.Null );
      ("retry", J.Str (if w.backoff then "default_backoff" else "fixed_50ms"));
      ("twopc_timeout_ms", num (twopc_timeout w ~scale));
      ("audited", J.Bool w.audited);
    ]
