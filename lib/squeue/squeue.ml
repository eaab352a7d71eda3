module Net = Esr_sim.Net
module Engine = Esr_sim.Engine
module Prng = Esr_util.Prng
module Trace = Esr_obs.Trace

type mode = Unordered | Fifo

type backoff = { multiplier : float; max_interval : float; jitter : float }

let default_backoff = { multiplier = 2.0; max_interval = 800.0; jitter = 0.1 }

(* Sender-side state of one src->dst channel.  [unacked] is the journal: it
   survives crashes of the sender (stable storage), drives retry, and is
   where the receiver reads a message's payload ({!journal_payload}).
   Each entry remembers when it was last transmitted so a timer tick only
   retransmits messages that have actually been waiting a full interval.
   The table is only looked up: retransmission walks the seqs from
   [oldest] to [next_seq - 1], so it goes in seq order. *)
type 'a pending_msg = { payload : 'a; mutable last_sent : float }

type 'a chan = {
  mutable next_seq : int;
  mutable oldest : int;
      (* no seq below it is unacked; advanced by [resend], not by acks *)
  unacked : (int, 'a pending_msg) Hashtbl.t;
  mutable timer_active : bool;
  mutable cur_interval : float;
      (* current retry interval; equals the base interval unless a backoff
         policy is installed, in which case it doubles (capped) while the
         channel makes no progress and resets on ack *)
}

(* Receiver-side state of one src->dst channel.  Every seq below [mark]
   has been handed up: in [Fifo] mode [mark] is the next seq to deliver
   and [reorder] buffers the early arrivals; in [Unordered] mode [above]
   holds the seqs delivered out of order past [mark].  [floor] is [mark]
   at the last checkpoint cut ({!gc_site}), so [mark - floor] counts the
   dedup records a cut reclaims. *)
type 'a recv = {
  mutable mark : int;
  mutable floor : int;
  above : (int, unit) Hashtbl.t;  (* Unordered *)
  reorder : (int, 'a) Hashtbl.t;  (* Fifo *)
}

type counters = {
  enqueued : int;
  delivered_first : int;
  duplicates_suppressed : int;
  retransmissions : int;
  acks_received : int;
}

type 'a t = {
  net : Net.t;
  mode : mode;
  retry_interval : float;
  backoff : backoff option;
  jitter_prng : Prng.t;  (* only consumed when [backoff] is installed *)
  handler : site:int -> src:int -> 'a -> unit;
  chans : 'a chan array array;  (* [src].(dst) *)
  recvs : 'a recv array array;  (* [dst].(src) *)
  data : Net.port;  (* carries seq src -> dst *)
  ack : Net.port;  (* carries seq dst -> src *)
  timer : Engine.port;  (* carries (src, dst) of the channel to retry *)
  mutable n_enqueued : int;
  mutable n_delivered : int;
  mutable n_dup : int;
  mutable n_retx : int;
  mutable n_acks : int;
  mutable n_pending : int;
  journaled_by : int array;  (* cumulative per-src journal appends *)
  trace : Trace.t;  (* session-layer events: send / first delivery / dup *)
}

let register_metrics t (m : Esr_obs.Metrics.t) =
  let g name f = Esr_obs.Metrics.gauge_fn m ~group:"squeue" name f in
  g "enqueued" (fun () -> float_of_int t.n_enqueued);
  g "delivered_first" (fun () -> float_of_int t.n_delivered);
  g "duplicates_suppressed" (fun () -> float_of_int t.n_dup);
  g "retransmissions" (fun () -> float_of_int t.n_retx);
  g "acks_received" (fun () -> float_of_int t.n_acks);
  g "pending" (fun () -> float_of_int t.n_pending)

let[@inline] note_dup t ~src ~dst seq =
  t.n_dup <- t.n_dup + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_dup { src; dst; seq })

let[@inline] note_delivered t ~src ~dst seq =
  t.n_delivered <- t.n_delivered + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_delivered { src; dst; seq })

(* The payload of [seq] from the sender's journal.  A data message
   carries only its seq: the first arrival the receiver accepts reads the
   payload here.  The entry is always present then, because an entry
   leaves the journal only on an ack, an ack follows an arrival, and
   every arrival after the first is suppressed as a duplicate before
   this lookup. *)
let journal_payload t ~src ~dst seq =
  match Hashtbl.find t.chans.(src).(dst).unacked seq with
  | pending -> pending.payload
  | exception Not_found ->
      failwith
        (Printf.sprintf
           "Squeue: channel %d->%d accepted seq %d with no journal entry" src
           dst seq)

let deliver t ~dst ~src seq =
  let recv = t.recvs.(dst).(src) in
  match t.mode with
  | Unordered ->
      if seq < recv.mark || Hashtbl.mem recv.above seq then
        note_dup t ~src ~dst seq
      else begin
        let payload = journal_payload t ~src ~dst seq in
        if seq = recv.mark then begin
          recv.mark <- seq + 1;
          (* Fold in any out-of-order seqs the gap was holding back. *)
          while
            Hashtbl.length recv.above > 0 && Hashtbl.mem recv.above recv.mark
          do
            Hashtbl.remove recv.above recv.mark;
            recv.mark <- recv.mark + 1
          done
        end
        else Hashtbl.replace recv.above seq ();
        note_delivered t ~src ~dst seq;
        t.handler ~site:dst ~src payload
      end
  | Fifo ->
      if seq < recv.mark || Hashtbl.mem recv.reorder seq then
        note_dup t ~src ~dst seq
      else if seq = recv.mark && Hashtbl.length recv.reorder = 0 then begin
        (* In-order fast path — the overwhelmingly common case on a
           healthy link: no reorder-buffer round trip, no allocation. *)
        let payload = journal_payload t ~src ~dst seq in
        recv.mark <- seq + 1;
        note_delivered t ~src ~dst seq;
        t.handler ~site:dst ~src payload
      end
      else begin
        Hashtbl.replace recv.reorder seq (journal_payload t ~src ~dst seq);
        (* Hand up the contiguous prefix. *)
        let rec drain () =
          match Hashtbl.find recv.reorder recv.mark with
          | exception Not_found -> ()
          | p ->
              let seq = recv.mark in
              Hashtbl.remove recv.reorder seq;
              recv.mark <- seq + 1;
              note_delivered t ~src ~dst seq;
              t.handler ~site:dst ~src p;
              drain ()
        in
        drain ()
      end

(* A data message at [dst]: deliver (with dedup), then ack every copy. *)
let on_data t ~src ~dst seq =
  deliver t ~dst ~src seq;
  Net.post t.net t.ack ~src:dst ~dst:src seq

let on_ack t ~src ~dst seq =
  let chan = t.chans.(src).(dst) in
  if Hashtbl.mem chan.unacked seq then begin
    Hashtbl.remove chan.unacked seq;
    t.n_acks <- t.n_acks + 1;
    t.n_pending <- t.n_pending - 1;
    (* Forward progress: the peer is reachable again, so retry promptly. *)
    chan.cur_interval <- t.retry_interval
  end

let transmit t ~src ~dst seq = Net.post t.net t.data ~src ~dst seq

let arm_timer t ~src ~dst =
  let chan = t.chans.(src).(dst) in
  if not chan.timer_active then begin
    chan.timer_active <- true;
    let delay =
      match t.backoff with
      | None -> t.retry_interval
      | Some b ->
          (* Bounded multiplicative jitter decorrelates channels that
             entered backoff at the same instant. *)
          chan.cur_interval
          *. (1.0 +. Prng.float t.jitter_prng (Float.max 0.0 b.jitter))
    in
    Engine.post (Net.engine t.net) ~delay t.timer src dst
  end

(* Retransmit the channel's unacked messages in seq order, then re-arm
   its timer: every one when [all], else those that have waited a full
   interval (fresher ones may still be acked in flight). *)
let resend t ~src ~dst ~all =
  let chan = t.chans.(src).(dst) in
  if Hashtbl.length chan.unacked > 0 then begin
    while not (Hashtbl.mem chan.unacked chan.oldest) do
      chan.oldest <- chan.oldest + 1
    done;
    let now = Engine.now (Net.engine t.net) and before = t.n_retx in
    for seq = chan.oldest to chan.next_seq - 1 do
      match Hashtbl.find chan.unacked seq with
      | pending when all || now -. pending.last_sent >= t.retry_interval -. 1e-9 ->
          t.n_retx <- t.n_retx + 1;
          pending.last_sent <- now;
          transmit t ~src ~dst seq
      | _ | (exception Not_found) -> ()
    done;
    (match t.backoff with
    | Some b when (not all) && t.n_retx > before ->
        (* No ack since the last full interval: the peer is likely
           crashed or partitioned away, so widen the retry gap instead of
           storming the link. *)
        chan.cur_interval <-
          Float.min (chan.cur_interval *. b.multiplier) b.max_interval
    | _ -> ());
    arm_timer t ~src ~dst
  end

let on_timer t ~src ~dst =
  t.chans.(src).(dst).timer_active <- false;
  resend t ~src ~dst ~all:false

(* Immediate retransmission of everything outstanding on one channel —
   fired when a fault heals so recovery does not wait out a (possibly
   backed-off) retry interval. *)
let kick_chan t ~src ~dst =
  t.chans.(src).(dst).cur_interval <- t.retry_interval;
  resend t ~src ~dst ~all:true

let kick_site t site =
  for peer = 0 to Net.sites t.net - 1 do
    if peer <> site then begin
      (* Both directions: the recovered site drains its own journal and
         peers flush what queued up for it while it was down. *)
      kick_chan t ~src:site ~dst:peer;
      kick_chan t ~src:peer ~dst:site
    end
  done

let kick_all t =
  for src = 0 to Net.sites t.net - 1 do
    for dst = 0 to Net.sites t.net - 1 do
      if src <> dst then kick_chan t ~src ~dst
    done
  done

let create ?(mode = Unordered) ?(retry_interval = 50.0) ?backoff ?obs net
    ~handler =
  let n = Net.sites net in
  let fresh_chan _ =
    {
      next_seq = 0;
      oldest = 0;
      unacked = Hashtbl.create 8;
      timer_active = false;
      cur_interval = retry_interval;
    }
  in
  let fresh_recv _ =
    { mark = 0; floor = 0; above = Hashtbl.create 8; reorder = Hashtbl.create 8 }
  in
  (* The port handlers need the fabric, and the fabric holds the ports. *)
  let self = ref None in
  let fabric () = Option.get !self in
  let data =
    Net.port ~cls:"data" net (fun ~src ~dst seq -> on_data (fabric ()) ~src ~dst seq)
  in
  let ack =
    Net.port ~cls:"ack" net (fun ~src ~dst seq ->
        on_ack (fabric ()) ~src:dst ~dst:src seq)
  in
  let timer =
    Engine.port (Net.engine net) (fun src dst -> on_timer (fabric ()) ~src ~dst)
  in
  let t =
    {
      net;
      mode;
      retry_interval;
      backoff;
      jitter_prng = Prng.create 0x5132_77AB;
      handler;
      chans = Array.init n (fun _ -> Array.init n fresh_chan);
      recvs = Array.init n (fun _ -> Array.init n fresh_recv);
      data;
      ack;
      timer;
      n_enqueued = 0;
      n_delivered = 0;
      n_dup = 0;
      n_retx = 0;
      n_acks = 0;
      n_pending = 0;
      journaled_by = Array.make n 0;
      trace =
        (match obs with
        | Some (o : Esr_obs.Obs.t) -> o.Esr_obs.Obs.trace
        | None -> Trace.make ~capacity:1 ~enabled:false ());
    }
  in
  self := Some t;
  (match obs with
  | Some (o : Esr_obs.Obs.t) -> register_metrics t o.Esr_obs.Obs.metrics
  | None -> ());
  (* Fault-heal hooks: a recovered site (or a healed partition) triggers an
     immediate retransmission pass instead of waiting out the timers.  In a
     fault-free run these hooks never fire, so behaviour is unchanged. *)
  Net.on_recover net (fun site -> kick_site t site);
  Net.on_heal net (fun () -> kick_all t);
  t

let send t ~src ~dst payload =
  let chan = t.chans.(src).(dst) in
  let seq = chan.next_seq in
  chan.next_seq <- seq + 1;
  Hashtbl.replace chan.unacked seq
    { payload; last_sent = Engine.now (Net.engine t.net) };
  t.n_enqueued <- t.n_enqueued + 1;
  t.n_pending <- t.n_pending + 1;
  t.journaled_by.(src) <- t.journaled_by.(src) + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_send { src; dst; seq });
  transmit t ~src ~dst seq;
  arm_timer t ~src ~dst

let broadcast t ~src payload =
  for dst = 0 to Net.sites t.net - 1 do
    if dst <> src then send t ~src ~dst payload
  done

let multicast t ~src ~dests payload =
  Esr_store.Sharding.Dests.iter dests (fun dst ->
      if dst <> src then send t ~src ~dst payload)

let pending t = t.n_pending

(* Sender-side journal footprint of one site: entries it has durably
   queued but not yet seen acknowledged, across all its channels. *)
let journal_depth t ~site =
  let n = ref 0 in
  Array.iter (fun chan -> n := !n + Hashtbl.length chan.unacked) t.chans.(site);
  !n

let journaled t ~site = t.journaled_by.(site)

(* Receiver-side dedup journal footprint of one site: the delivered seqs
   its inbound channels have not yet folded into a checkpoint cut — the
   part {!gc_site} reclaims.  [Fifo] channels keep no per-seq record
   ([mark] alone is their watermark), so they count none. *)
let dedup_depth t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      Array.fold_left
        (fun n recv -> n + (recv.mark - recv.floor) + Hashtbl.length recv.above)
        0 t.recvs.(site)

(* Checkpoint GC over one site's inbound dedup journals: move each
   channel's floor up to its watermark and return how far the floors
   moved.  A retransmission below the watermark is suppressed by the
   watermark alone, so exactly-once delivery is unaffected. *)
let gc_site t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      Array.fold_left
        (fun n recv ->
          let advance = recv.mark - recv.floor in
          recv.floor <- recv.mark;
          n + advance)
        0 t.recvs.(site)

let counters t =
  {
    enqueued = t.n_enqueued;
    delivered_first = t.n_delivered;
    duplicates_suppressed = t.n_dup;
    retransmissions = t.n_retx;
    acks_received = t.n_acks;
  }
