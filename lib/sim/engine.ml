module Prof = Esr_obs.Prof

(* An event is a heap entry: (time, seq) orders it, the key says what it
   does.  A negative key is a closure event: [lnot key] is the slot of
   [bodies] that holds its body.  Any other key is a port event, packed
   as port id (8 bits) | a (24 bits) | b (30 bits).  The heap holds only
   scalars, so sifting an event moves no pointer. *)
type t = {
  heap : Heap.t;
  hint : int;
  mutable bodies : (unit -> unit) array;
      (* closure bodies by slot; a free slot holds [noop], so a fired
         body and what it captures are released *)
  mutable free : int array;  (* stack of freed slots, [n_free] deep *)
  mutable n_free : int;
  mutable n_slots : int;  (* slots handed out so far, free or not *)
  mutable clock : float;
      (* boxed on purpose: [now] then returns the stored box, so a caller
         in another module never allocates to read the clock *)
  mutable next_seq : int;
  mutable live : int;
  mutable executed : int;
  mutable cancelled : int;
  mutable ports : (int -> int -> unit) array;  (* indexed by port id *)
  tombstones : (int, unit) Hashtbl.t;
      (* seqs cancelled while still in the heap; consulted at pop only
         when non-empty *)
  mutable prof : Prof.t;
      (* host-time profiler around every dispatched event body; the shared
         disabled instance until the harness installs a live one *)
}

type event_id = int
type port = int

let max_ports = 1 lsl 8
let a_bits = 24
let b_bits = 30
let noop () = ()

let create ?(hint = 64) () =
  {
    heap = Heap.create ~hint ();
    hint;
    bodies = [||];
    free = [||];
    n_free = 0;
    n_slots = 0;
    clock = 0.0;
    next_seq = 0;
    live = 0;
    executed = 0;
    cancelled = 0;
    ports = [||];
    tombstones = Hashtbl.create 8;
    prof = Prof.disabled;
  }

let set_prof t prof = t.prof <- prof

let now t = t.clock

let push t ~time ~key =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap ~time ~seq ~key;
  t.live <- t.live + 1;
  seq

(* The table is allocated at the first closure event, sized like the
   heap's columns, and doubles when full.  A slot is taken from the free
   stack first. *)
let grow_bodies t =
  let n = Array.length t.bodies in
  let bodies = Array.make (if n = 0 then Stdlib.max t.hint 16 else 2 * n) noop in
  Array.blit t.bodies 0 bodies 0 n;
  t.bodies <- bodies

let schedule_closure t ~time body =
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      Array.unsafe_get t.free t.n_free
    end
    else begin
      if t.n_slots = Array.length t.bodies then grow_bodies t;
      let slot = t.n_slots in
      t.n_slots <- slot + 1;
      slot
    end
  in
  t.bodies.(slot) <- body;
  push t ~time ~key:(lnot slot)

(* Empty a slot whose entry has left the heap and stack it for reuse. *)
let release t slot =
  Array.unsafe_set t.bodies slot noop;
  if t.n_free = Array.length t.free then begin
    let free = Array.make (Stdlib.max 16 (2 * t.n_free)) 0 in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  Array.unsafe_set t.free t.n_free slot;
  t.n_free <- t.n_free + 1

(* The guards are written [not (x >= y)] so that a NaN time or delay is
   refused: every comparison with NaN is false. *)
let schedule_at t ~time body =
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  schedule_closure t ~time body

let schedule t ~delay body =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  schedule_closure t ~time:(t.clock +. delay) body

let port t handler =
  let id = Array.length t.ports in
  if id = max_ports then
    invalid_arg (Printf.sprintf "Engine.port: at most %d ports" max_ports);
  t.ports <- Array.append t.ports [| handler |];
  id

let post t ~delay port a b =
  if not (delay >= 0.0) then invalid_arg "Engine.post: negative delay";
  if a lsr a_bits <> 0 || b lsr b_bits <> 0 then
    invalid_arg
      (Printf.sprintf "Engine.post: arguments (%d, %d) outside [0, 2^%d) x [0, 2^%d)"
         a b a_bits b_bits);
  ignore
    (push t ~time:(t.clock +. delay)
       ~key:((port lsl (a_bits + b_bits)) lor (a lsl b_bits) lor b))

(* Cancelled events stay in the heap and are skipped when they surface.
   Only a seq still in the heap and not yet cancelled is pending, so
   cancelling a fired or already-cancelled event is a no-op.  A cancelled
   closure keeps its slot until its entry surfaces: the entry's key names
   the slot until then.  Nothing in the simulator cancels, so the scan is
   off every hot path. *)
let cancel t seq =
  if (not (Hashtbl.mem t.tombstones seq)) && Heap.mem_seq t.heap seq then begin
    Hashtbl.replace t.tombstones seq ();
    t.live <- t.live - 1;
    t.cancelled <- t.cancelled + 1
  end

(* A closure's slot is emptied before its body runs, which may schedule
   closures of its own. *)
let fire t key =
  if key < 0 then begin
    let slot = lnot key in
    let body = Array.unsafe_get t.bodies slot in
    release t slot;
    body ()
  end
  else
    (Array.unsafe_get t.ports (key lsr (a_bits + b_bits)))
      ((key lsr b_bits) land ((1 lsl a_bits) - 1))
      (key land ((1 lsl b_bits) - 1))

let execute t time key =
  t.clock <- time;
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  (* Profiling off is the common case and must stay allocation-free on
     this path: one load-and-branch, then the direct call. *)
  if Prof.on t.prof then begin
    let t0 = Prof.start t.prof in
    let a0 = Prof.alloc0 t.prof in
    fire t key;
    Prof.record t.prof Prof.Engine_dispatch ~t0 ~a0
  end
  else fire t key

(* Whether the heap minimum was cancelled; forgets its tombstone if so. *)
let tombstoned t =
  Hashtbl.length t.tombstones > 0
  && begin
       let seq = Heap.min_seq t.heap in
       let hit = Hashtbl.mem t.tombstones seq in
       if hit then Hashtbl.remove t.tombstones seq;
       hit
     end

(* Remove the heap minimum, due at [time], and execute it unless it was
   cancelled (a cancelled closure's slot is released then); true when it
   ran.  The minimum is read in place, so a warm event loop allocates
   nothing per event beyond the clock's box. *)
let pop_execute t time =
  let key = Heap.min_key t.heap in
  let skip = tombstoned t in
  Heap.drop_min t.heap;
  if not skip then execute t time key
  else if key < 0 then release t (lnot key);
  not skip

let rec step t =
  (not (Heap.is_empty t.heap))
  && (pop_execute t (Heap.min_time t.heap) || step t)

let run ?until t =
  match until with
  | None ->
      while not (Heap.is_empty t.heap) do
        ignore (pop_execute t (Heap.min_time t.heap))
      done
  | Some limit ->
      let rec drain () =
        if not (Heap.is_empty t.heap) then begin
          (* Peek before removing: an event past the limit never leaves
             the heap, so its (time, seq) ordering is untouched. *)
          let time = Heap.min_time t.heap in
          if time <= limit then begin
            ignore (pop_execute t time);
            drain ()
          end
        end
      in
      drain ();
      if t.clock < limit then t.clock <- limit

let pending t = t.live
let processed t = t.executed
let scheduled t = t.next_seq
let cancelled t = t.cancelled
