(* Structure-of-arrays layout: times live in a flat float array (unboxed
   by the runtime), seqs and keys in int arrays, payloads in their own
   array.  Sift comparisons touch only the scalar arrays — no pointer
   chasing — and push/drop_min allocate nothing except when the arrays
   grow. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable keys : int array;
  mutable payloads : 'a array;
  mutable len : int;
  hint : int;
}

let create ?(hint = 16) () =
  {
    times = [||];
    seqs = [||];
    keys = [||];
    payloads = [||];
    len = 0;
    hint = Stdlib.max 1 hint;
  }

let size t = t.len
let is_empty t = t.len = 0

let lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let x = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- x;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let p = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.len && lt t left !smallest then smallest := left;
  if right < t.len && lt t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t payload =
  let capacity = Stdlib.max t.hint (Stdlib.max 16 (2 * t.len)) in
  (* Uninitialised: a slot is written before it is read, and a float
     array holds no pointers for the GC to scan.  Skipping the fill saves
     touching a pre-sized column's pages at set-up. *)
  let times = Array.create_float capacity in
  let seqs = Array.make capacity 0 in
  let keys = Array.make capacity 0 in
  let payloads = Array.make capacity payload in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.keys <- keys;
  t.payloads <- payloads

let push t ~time ~seq ~key payload =
  if t.len = Array.length t.times then grow t payload;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.keys.(i) <- key;
  t.payloads.(i) <- payload;
  t.len <- i + 1;
  sift_up t i

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.seqs.(0)

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let min_payload t =
  if t.len = 0 then invalid_arg "Heap.min_payload: empty heap";
  t.payloads.(0)

let drop_min t =
  if t.len = 0 then invalid_arg "Heap.drop_min: empty heap";
  t.len <- t.len - 1;
  let l = t.len in
  if l > 0 then begin
    t.times.(0) <- t.times.(l);
    t.seqs.(0) <- t.seqs.(l);
    t.keys.(0) <- t.keys.(l);
    t.payloads.(0) <- t.payloads.(l);
    sift_down t 0
  end

let mem_seq t seq =
  let rec scan i = i < t.len && (t.seqs.(i) = seq || scan (i + 1)) in
  scan 0

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and payload = t.payloads.(0) in
    drop_min t;
    Some (time, seq, payload)
  end

let peek t =
  if t.len = 0 then None else Some (t.times.(0), t.seqs.(0), t.payloads.(0))
