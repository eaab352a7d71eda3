module Net = Esr_sim.Net
module Engine = Esr_sim.Engine
module Prng = Esr_util.Prng
module Trace = Esr_obs.Trace

type mode = Unordered | Fifo

type backoff = { multiplier : float; max_interval : float; jitter : float }

let default_backoff = { multiplier = 2.0; max_interval = 800.0; jitter = 0.1 }

(* One src->dst channel, made by its first {!send}.

   Sender half: [unacked] is the journal.  It survives crashes of the
   sender (stable storage), drives retry, and is where the receiver reads
   a message's payload ({!journal_payload}).  Each entry remembers when
   it was last transmitted so a timer tick only retransmits messages that
   have actually been waiting a full interval.  The table is only looked
   up: retransmission walks the seqs from [oldest] to [next_seq - 1], so
   it goes in seq order.  [flags] says whether the retry timer is armed,
   whether an ack has removed a journal entry since the timer last fired
   (the link is alive), and whether the last tick, hearing none, sent a
   probe that the next ack answers by reopening the channel.

   Receiver half: every seq below [mark] has been handed up, and [early]
   holds the seqs that arrived past [mark] — in [Fifo] mode the arrivals
   waiting for the gap, in [Unordered] mode those already handed up out
   of order.  It is made by the first such arrival, so a link that does
   not reorder never builds one.  [floor] is [mark] at the last
   checkpoint cut ({!gc_site}), so [mark - floor] counts the dedup
   records a cut reclaims. *)
type 'a pending_msg = { payload : 'a; mutable last_sent : float }

type 'a chan = {
  mutable next_seq : int;
  mutable oldest : int;
      (* no seq below it is unacked; advanced by [resend], not by acks *)
  unacked : (int, 'a pending_msg) Hashtbl.t;
  mutable flags : int;  (* [armed], [heard] and [probing] bits *)
  mutable cur_interval : float;
      (* the wait the next armed timer takes: the base interval, widened
         by each probe under the backoff policy and reset when the
         channel reopens *)
  mutable mark : int;
  mutable floor : int;
  mutable early : (int, 'a) Hashtbl.t;
      (* the fabric's shared empty [no_early] until {!early_table} makes
         the channel's own *)
}

let armed = 1
let heard = 2
let probing = 4

type counters = {
  enqueued : int;
  delivered_first : int;
  duplicates_suppressed : int;
  retransmissions : int;
  acks_received : int;
}

type 'a t = {
  net : Net.t;
  sites : int;
  mode : mode;
  retry_interval : float;
  backoff : backoff;
  jitter_prng : Prng.t;  (* private, so jitter draws move no other stream *)
  handler : site:int -> src:int -> 'a -> unit;
  chans : 'a chan option array;  (* [src * sites + dst], made by a send *)
  no_early : (int, 'a) Hashtbl.t;  (* always empty: nothing is added to it *)
  data : Net.port;  (* carries seq src -> dst *)
  ack : Net.port;  (* carries seq dst -> src *)
  timer : Engine.port;  (* carries (src, dst) of the channel to retry *)
  mutable n_enqueued : int;
  mutable n_delivered : int;
  mutable n_dup : int;
  mutable n_retx : int;
  mutable n_acks : int;
  mutable n_pending : int;
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

(* The channel a data, ack or timer event names: its first send made it. *)
let[@inline] chan t ~src ~dst = Option.get t.chans.((src * t.sites) + dst)

(* Fold [f] over the made channels out of [site] when [out], else into
   it, in ascending peer order. *)
let fold_site t ~site ~out f init =
  let acc = ref init in
  for peer = 0 to t.sites - 1 do
    let i = if out then (site * t.sites) + peer else (peer * t.sites) + site in
    match t.chans.(i) with Some chan -> acc := f !acc chan | None -> ()
  done;
  !acc

let[@inline] note_dup t ~src ~dst seq =
  t.n_dup <- t.n_dup + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_dup { src; dst; seq })

let[@inline] hand_up t ~src ~dst seq payload =
  t.n_delivered <- t.n_delivered + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_delivered { src; dst; seq });
  t.handler ~site:dst ~src payload

(* The payload of [seq] from the sender's journal.  A data message
   carries only its seq: the first arrival the receiver accepts reads the
   payload here.  The entry is always present then, because an entry
   leaves the journal only on an ack, an ack follows an arrival, and
   every arrival after the first is suppressed as a duplicate before
   this lookup. *)
let journal_payload chan ~src ~dst seq =
  match Hashtbl.find chan.unacked seq with
  | pending -> pending.payload
  | exception Not_found ->
      failwith
        (Printf.sprintf
           "Squeue: channel %d->%d accepted seq %d with no journal entry" src
           dst seq)

(* The channel's early-arrival table, made by its first arrival past
   [mark]; every add goes through here. *)
let early_table t chan =
  if chan.early == t.no_early then chan.early <- Hashtbl.create 8;
  chan.early

(* Hand up [seq] on a FIFO channel, then the contiguous prefix it
   completes; on a healthy link [early] is empty and nothing is
   allocated. *)
let rec hand_up_run t chan ~src ~dst seq payload =
  chan.mark <- seq + 1;
  hand_up t ~src ~dst seq payload;
  if Hashtbl.length chan.early > 0 then
    match Hashtbl.find chan.early chan.mark with
    | exception Not_found -> ()
    | next ->
        Hashtbl.remove chan.early chan.mark;
        hand_up_run t chan ~src ~dst chan.mark next

let deliver t ~dst ~src seq =
  let chan = chan t ~src ~dst in
  if
    seq < chan.mark
    || (Hashtbl.length chan.early > 0 && Hashtbl.mem chan.early seq)
  then note_dup t ~src ~dst seq
  else begin
    let payload = journal_payload chan ~src ~dst seq in
    match t.mode with
    | Unordered ->
        if seq = chan.mark then begin
          chan.mark <- seq + 1;
          (* Fold in the out-of-order seqs the gap was holding back. *)
          while
            Hashtbl.length chan.early > 0 && Hashtbl.mem chan.early chan.mark
          do
            Hashtbl.remove chan.early chan.mark;
            chan.mark <- chan.mark + 1
          done
        end
        else Hashtbl.replace (early_table t chan) seq payload;
        hand_up t ~src ~dst seq payload
    | Fifo ->
        if seq > chan.mark then Hashtbl.replace (early_table t chan) seq payload
        else hand_up_run t chan ~src ~dst seq payload
  end

(* A data message at [dst]: deliver (with dedup), then ack every copy. *)
let on_data t ~src ~dst seq =
  deliver t ~dst ~src seq;
  Net.post t.net t.ack ~src:dst ~dst:src seq

let transmit t ~src ~dst seq = Net.post t.net t.data ~src ~dst seq

let arm_timer t chan ~src ~dst =
  if chan.flags land armed = 0 then begin
    chan.flags <- chan.flags lor armed;
    (* Bounded multiplicative jitter decorrelates channels that entered
       backoff at the same instant; without a policy it is 0, and every
       wait is exactly the base interval.  A 0 fraction skips the draw:
       the stream is the fabric's own and [Prng.float _ 0.0] is 0.0, so
       nothing else moves, and no float is boxed per arm. *)
    let jitter = t.backoff.jitter in
    let delay =
      if jitter = 0.0 then chan.cur_interval
      else chan.cur_interval *. (1.0 +. Prng.float t.jitter_prng jitter)
    in
    Engine.post (Net.engine t.net) ~delay t.timer src dst
  end

(* Retransmit, in seq order, the channel's messages that have waited at
   least [stale] since they were last sent (fresher ones may still be
   acked in flight), then re-arm its timer.  A [probe] sends only the
   first of them and, if it sent one, widens the interval under the
   backoff policy: the link has gone quiet, so one message per tick asks
   whether it is back instead of the whole window storming it. *)
let resend t chan ~src ~dst ~stale ~probe =
  if Hashtbl.length chan.unacked > 0 then begin
    while not (Hashtbl.mem chan.unacked chan.oldest) do
      chan.oldest <- chan.oldest + 1
    done;
    let now = Engine.now (Net.engine t.net) and before = t.n_retx in
    let seq = ref chan.oldest in
    while !seq < chan.next_seq && not (probe && t.n_retx > before) do
      (match Hashtbl.find chan.unacked !seq with
      | pending when now -. pending.last_sent >= stale -. 1e-9 ->
          t.n_retx <- t.n_retx + 1;
          pending.last_sent <- now;
          transmit t ~src ~dst !seq
      | _ | (exception Not_found) -> ());
      incr seq
    done;
    if probe && t.n_retx > before then begin
      chan.flags <- chan.flags lor probing;
      chan.cur_interval <-
        Float.min
          (chan.cur_interval *. t.backoff.multiplier)
          t.backoff.max_interval
    end;
    arm_timer t chan ~src ~dst
  end

(* The link answered a probe, or a fault healed: back to the base
   interval, and retransmit what has waited [stale] at once. *)
let reopen t chan ~src ~dst ~stale =
  chan.flags <- chan.flags land lnot probing;
  chan.cur_interval <- t.retry_interval;
  resend t chan ~src ~dst ~stale ~probe:false

(* One hash per ack: the journal shrinks only when [seq] was in it. *)
let on_ack t ~src ~dst seq =
  let chan = chan t ~src ~dst in
  let outstanding = Hashtbl.length chan.unacked in
  Hashtbl.remove chan.unacked seq;
  if Hashtbl.length chan.unacked < outstanding then begin
    t.n_acks <- t.n_acks + 1;
    t.n_pending <- t.n_pending - 1;
    chan.flags <- chan.flags lor heard;
    if chan.flags land probing <> 0 then
      reopen t chan ~src ~dst ~stale:t.retry_interval
  end

(* A tick.  If an ack removed a journal entry since the last one, the
   link is alive and every overdue message goes again; if none did, only
   the oldest overdue one goes, as a probe. *)
let on_timer t ~src ~dst =
  let chan = chan t ~src ~dst in
  let alive = chan.flags land heard <> 0 in
  chan.flags <- chan.flags land probing;
  resend t chan ~src ~dst ~stale:t.retry_interval ~probe:(not alive)

(* Immediate retransmission of everything outstanding on one channel —
   fired when a fault heals so recovery does not wait out a (possibly
   backed-off) retry interval; it reopens a probing channel.  A channel
   no send has made has nothing outstanding. *)
let kick_chan t ~src ~dst =
  match t.chans.((src * t.sites) + dst) with
  | Some chan -> reopen t chan ~src ~dst ~stale:0.0
  | None -> ()

let kick_site t site =
  for peer = 0 to t.sites - 1 do
    if peer <> site then begin
      (* Both directions: the recovered site drains its own journal and
         peers flush what queued up for it while it was down. *)
      kick_chan t ~src:site ~dst:peer;
      kick_chan t ~src:peer ~dst:site
    end
  done

let kick_all t =
  for src = 0 to t.sites - 1 do
    for dst = 0 to t.sites - 1 do
      if src <> dst then kick_chan t ~src ~dst
    done
  done

let create ?(mode = Unordered) ?(retry_interval = 50.0) ?backoff ?obs net
    ~handler =
  let n = Net.sites net in
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
      sites = n;
      mode;
      retry_interval;
      backoff =
        (match backoff with
        | Some b -> { b with jitter = Float.max 0.0 b.jitter }
        | None -> { multiplier = 1.0; max_interval = retry_interval; jitter = 0.0 });
      jitter_prng = Prng.create 0x5132_77AB;
      handler;
      chans = Array.make (n * n) None;
      no_early = Hashtbl.create 1;
      data;
      ack;
      timer;
      n_enqueued = 0;
      n_delivered = 0;
      n_dup = 0;
      n_retx = 0;
      n_acks = 0;
      n_pending = 0;
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
  let i = (src * t.sites) + dst in
  let chan =
    match t.chans.(i) with
    | Some chan -> chan
    | None ->
        let chan =
          {
            next_seq = 0;
            oldest = 0;
            unacked = Hashtbl.create 8;
            flags = 0;
            cur_interval = t.retry_interval;
            mark = 0;
            floor = 0;
            early = t.no_early;
          }
        in
        t.chans.(i) <- Some chan;
        chan
  in
  let seq = chan.next_seq in
  chan.next_seq <- seq + 1;
  Hashtbl.replace chan.unacked seq
    { payload; last_sent = Engine.now (Net.engine t.net) };
  t.n_enqueued <- t.n_enqueued + 1;
  t.n_pending <- t.n_pending + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_send { src; dst; seq });
  transmit t ~src ~dst seq;
  arm_timer t chan ~src ~dst

let broadcast t ~src payload =
  for dst = 0 to t.sites - 1 do
    if dst <> src then send t ~src ~dst payload
  done

let multicast t ~src ~dests payload =
  Esr_store.Sharding.Dests.iter dests (fun dst ->
      if dst <> src then send t ~src ~dst payload)

let pending t = t.n_pending

(* Sender-side journal footprint of one site: entries it has durably
   queued but not yet seen acknowledged, across all its channels. *)
let journal_depth t ~site =
  fold_site t ~site ~out:true (fun n chan -> n + Hashtbl.length chan.unacked) 0

(* Every journal append by [site] took one seq on one of its channels. *)
let journaled t ~site =
  fold_site t ~site ~out:true (fun n chan -> n + chan.next_seq) 0

(* Receiver-side dedup journal footprint of one site: the delivered seqs
   its inbound channels have not yet folded into a checkpoint cut — the
   part {!gc_site} reclaims.  [Fifo] channels keep no per-seq record
   ([mark] alone is their watermark), so they count none. *)
let dedup_depth t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      fold_site t ~site ~out:false
        (fun n chan -> n + (chan.mark - chan.floor) + Hashtbl.length chan.early)
        0

(* Checkpoint GC over one site's inbound dedup journals: move each
   channel's floor up to its watermark and return how far the floors
   moved.  A retransmission below the watermark is suppressed by the
   watermark alone, so exactly-once delivery is unaffected. *)
let gc_site t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      fold_site t ~site ~out:false
        (fun n chan ->
          let advance = chan.mark - chan.floor in
          chan.floor <- chan.mark;
          n + advance)
        0

let counters t =
  {
    enqueued = t.n_enqueued;
    delivered_first = t.n_delivered;
    duplicates_suppressed = t.n_dup;
    retransmissions = t.n_retx;
    acks_received = t.n_acks;
  }
