module Dist = Esr_util.Dist
module Prng = Esr_util.Prng
module Trace = Esr_obs.Trace
module Metrics = Esr_obs.Metrics

type config = {
  latency : Dist.t;
  drop_probability : float;
  duplicate_probability : float;
}

let default_config =
  { latency = Dist.Constant 10.0; drop_probability = 0.0; duplicate_probability = 0.0 }

let wan_config =
  {
    latency = Dist.Lognormal (3.6, 0.35);
    drop_probability = 0.01;
    duplicate_probability = 0.0;
  }

type counters = {
  sent : int;
  delivered : int;
  lost : int;
  blocked : int;
  blocked_partition : int;
  crashed_src : int;
  crashed_dst : int;
  duplicated : int;
}

type t = {
  engine : Engine.t;
  config : config;
  prng : Prng.t;
  n_sites : int;
  group : int array;  (* partition group per site *)
  up : bool array;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable blocked_partition : int;
  mutable crashed_src : int;
  mutable crashed_dst : int;
  mutable duplicated : int;
  sent_by : int array;  (* per-src sends *)
  delivered_to : int array;  (* per-dst first+duplicate deliveries *)
  trace : Trace.t;
  prof : Esr_obs.Prof.t;
  mutable recover_hooks : (int -> unit) list;  (* fired by [recover] *)
  mutable heal_hooks : (unit -> unit) list;  (* fired by [heal] *)
}

let register_metrics t (m : Metrics.t) =
  let g name f = Metrics.gauge_fn m ~group:"net" name f in
  g "sent" (fun () -> float_of_int t.sent);
  g "delivered" (fun () -> float_of_int t.delivered);
  g "lost" (fun () -> float_of_int t.lost);
  g "blocked_partition" (fun () -> float_of_int t.blocked_partition);
  g "crashed_src" (fun () -> float_of_int t.crashed_src);
  g "crashed_dst" (fun () -> float_of_int t.crashed_dst);
  g "duplicated" (fun () -> float_of_int t.duplicated);
  for site = 0 to t.n_sites - 1 do
    Metrics.gauge_fn m ~group:"net" ~site "sent" (fun () ->
        float_of_int t.sent_by.(site));
    Metrics.gauge_fn m ~group:"net" ~site "delivered" (fun () ->
        float_of_int t.delivered_to.(site))
  done

(* A port event carries (src, dst) packed in 12 + 12 bits as its first
   argument, so a network holds at most 4,096 sites. *)
let site_bits = 12
let max_sites = 1 lsl site_bits

let create ?(config = default_config) ?obs engine ~sites ~prng =
  if sites <= 0 then invalid_arg "Net.create: sites must be positive";
  if sites > max_sites then
    invalid_arg (Printf.sprintf "Net.create: at most %d sites" max_sites);
  let t =
    {
      engine;
      config;
      prng;
      n_sites = sites;
      group = Array.make sites 0;
      up = Array.make sites true;
      sent = 0;
      delivered = 0;
      lost = 0;
      blocked_partition = 0;
      crashed_src = 0;
      crashed_dst = 0;
      duplicated = 0;
      sent_by = Array.make sites 0;
      delivered_to = Array.make sites 0;
      trace =
        (match obs with
        | Some (o : Esr_obs.Obs.t) -> o.Esr_obs.Obs.trace
        | None -> Trace.make ~capacity:1 ~enabled:false ());
      prof =
        (match obs with
        | Some o -> o.Esr_obs.Obs.prof
        | None -> Esr_obs.Prof.disabled);
      recover_hooks = [];
      heal_hooks = [];
    }
  in
  (match obs with
  | Some o -> register_metrics t o.Esr_obs.Obs.metrics
  | None -> ());
  t

let engine t = t.engine
let sites t = t.n_sites

let check_site t s =
  if s < 0 || s >= t.n_sites then
    invalid_arg (Printf.sprintf "Net: site %d out of range [0,%d)" s t.n_sites)

let reachable t a b =
  check_site t a;
  check_site t b;
  t.group.(a) = t.group.(b)

let site_up t s =
  check_site t s;
  t.up.(s)

type port = { cls : string; eport : Engine.port }

(* Arrival of one copy at [dst].  Reachability is re-checked here: a crash
   or a partition that fired while the message was in flight cuts it
   off. *)
let arrive t ~cls handler ~src ~dst arg =
  if not t.up.(dst) then begin
    t.crashed_dst <- t.crashed_dst + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_dropped { src; dst; cls; reason = Trace.Crashed_dst })
  end
  else if t.group.(src) <> t.group.(dst) then begin
    t.blocked_partition <- t.blocked_partition + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_dropped { src; dst; cls; reason = Trace.Partition })
  end
  else begin
    t.delivered <- t.delivered + 1;
    t.delivered_to.(dst) <- t.delivered_to.(dst) + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_delivered { src; dst; cls });
    let prof = t.prof in
    if Esr_obs.Prof.on prof then begin
      let t0 = Esr_obs.Prof.start prof in
      let a0 = Esr_obs.Prof.alloc0 prof in
      handler ~src ~dst arg;
      Esr_obs.Prof.record prof ~site:dst Esr_obs.Prof.Net_delivery ~t0 ~a0
    end
    else handler ~src ~dst arg
  end

let port ?(cls = "msg") t handler =
  let eport =
    Engine.port t.engine (fun sd arg ->
        arrive t ~cls handler ~src:(sd lsr site_bits)
          ~dst:(sd land (max_sites - 1)) arg)
  in
  { cls; eport }

let transit t p ~src ~dst arg =
  let latency = Dist.sample t.config.latency t.prng in
  Engine.post t.engine ~delay:latency p.eport ((src lsl site_bits) lor dst) arg

let post t p ~src ~dst arg =
  check_site t src;
  check_site t dst;
  let cls = p.cls in
  t.sent <- t.sent + 1;
  t.sent_by.(src) <- t.sent_by.(src) + 1;
  if Trace.on t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine) (Trace.Msg_sent { src; dst; cls });
  if not t.up.(src) then begin
    (* Sending from a crashed site is a silent drop, not an exception: the
       site's volatile state is gone; its stable queues retry later. *)
    t.crashed_src <- t.crashed_src + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_dropped { src; dst; cls; reason = Trace.Crashed_src })
  end
  else if t.group.(src) <> t.group.(dst) then begin
    t.blocked_partition <- t.blocked_partition + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_dropped { src; dst; cls; reason = Trace.Partition })
  end
  else if Prng.bernoulli t.prng t.config.drop_probability then begin
    t.lost <- t.lost + 1;
    if Trace.on t.trace then
      Trace.emit t.trace ~time:(Engine.now t.engine)
        (Trace.Msg_dropped { src; dst; cls; reason = Trace.Loss })
  end
  else begin
    transit t p ~src ~dst arg;
    if Prng.bernoulli t.prng t.config.duplicate_probability then begin
      t.duplicated <- t.duplicated + 1;
      if Trace.on t.trace then
        Trace.emit t.trace ~time:(Engine.now t.engine)
          (Trace.Msg_duplicated { src; dst; cls });
      transit t p ~src ~dst arg
    end
  end

let partition t groups =
  let seen = Array.make t.n_sites false in
  List.iteri
    (fun gid members ->
      List.iter
        (fun s ->
          check_site t s;
          if seen.(s) then
            invalid_arg (Printf.sprintf "Net.partition: site %d listed twice" s);
          seen.(s) <- true;
          (* Group 0 is reserved for the implicit leftover group. *)
          t.group.(s) <- gid + 1)
        members)
    groups;
  Array.iteri (fun s listed -> if not listed then t.group.(s) <- 0) seen;
  if Trace.on t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine) (Trace.Partition_event { groups })

let heal t =
  Array.fill t.group 0 t.n_sites 0;
  if Trace.on t.trace then Trace.emit t.trace ~time:(Engine.now t.engine) Trace.Heal;
  List.iter (fun f -> f ()) (List.rev t.heal_hooks)

let crash t s =
  check_site t s;
  t.up.(s) <- false;
  if Trace.on t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine) (Trace.Crash { site = s })

let recover t s =
  check_site t s;
  t.up.(s) <- true;
  if Trace.on t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine) (Trace.Recover { site = s });
  List.iter (fun f -> f s) (List.rev t.recover_hooks)

let on_recover t f = t.recover_hooks <- f :: t.recover_hooks
let on_heal t f = t.heal_hooks <- f :: t.heal_hooks

let partitioned t = Array.exists (fun g -> g <> t.group.(0)) t.group

let partition_groups t =
  (* Reconstruct the group lists in ascending site order. *)
  let tbl = Hashtbl.create 4 in
  for s = t.n_sites - 1 downto 0 do
    let gid = t.group.(s) in
    let members = Option.value (Hashtbl.find_opt tbl gid) ~default:[] in
    Hashtbl.replace tbl gid (s :: members)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []
  |> List.sort compare

let down_sites t =
  let acc = ref [] in
  for s = t.n_sites - 1 downto 0 do
    if not t.up.(s) then acc := s :: !acc
  done;
  !acc

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    lost = t.lost;
    blocked = t.blocked_partition + t.crashed_src + t.crashed_dst;
    blocked_partition = t.blocked_partition;
    crashed_src = t.crashed_src;
    crashed_dst = t.crashed_dst;
    duplicated = t.duplicated;
  }
