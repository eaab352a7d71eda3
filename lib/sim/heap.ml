(* Three scalar columns: times in a flat float array (unboxed by the
   runtime), seqs and keys in int arrays.  A sift moves a hole: the entry
   being placed waits in locals while each entry it passes moves one
   level, three plain stores, and it is written once where the hole
   stops.  No column holds a pointer, so no store runs a write barrier.
   The loops use [unsafe_get]/[unsafe_set]: every index they touch is
   below [len], which never exceeds the columns' length. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable keys : int array;
  mutable len : int;
  hint : int;
}

let create ?(hint = 16) () =
  { times = [||]; seqs = [||]; keys = [||]; len = 0; hint = Stdlib.max 1 hint }

let size t = t.len
let is_empty t = t.len = 0

let grow t =
  let capacity = Stdlib.max t.hint (Stdlib.max 16 (2 * t.len)) in
  (* Uninitialised: a slot is written before it is read.  Skipping the
     fill saves touching a pre-sized column's pages at set-up. *)
  let times = Array.create_float capacity in
  let seqs = Array.make capacity 0 in
  let keys = Array.make capacity 0 in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.keys 0 keys 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.keys <- keys

(* The hole starts past the last entry and rises past every parent that
   sorts after the new entry. *)
let push t ~time ~seq ~key =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and keys = t.keys in
  let hole = ref t.len and rising = ref true in
  t.len <- t.len + 1;
  while !rising && !hole > 0 do
    let parent = (!hole - 1) lsr 1 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !hole pt;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set keys !hole (Array.unsafe_get keys parent);
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set times !hole time;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set keys !hole key

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.seqs.(0)

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

(* The last entry leaves its slot to fill the root's hole, which sinks
   past every smaller child that sorts before it. *)
let drop_min t =
  if t.len = 0 then invalid_arg "Heap.drop_min: empty heap";
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let times = t.times and seqs = t.seqs and keys = t.keys in
    let time = Array.unsafe_get times last
    and seq = Array.unsafe_get seqs last
    and key = Array.unsafe_get keys last in
    let hole = ref 0 and sinking = ref true in
    while !sinking do
      let left = (2 * !hole) + 1 in
      if left >= last then sinking := false
      else begin
        let right = left + 1 in
        let child =
          if right >= last then left
          else
            let lt = Array.unsafe_get times left
            and rt = Array.unsafe_get times right in
            if
              rt < lt
              || (rt = lt && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
            then right
            else left
        in
        let ct = Array.unsafe_get times child in
        if ct < time || (ct = time && Array.unsafe_get seqs child < seq) then begin
          Array.unsafe_set times !hole ct;
          Array.unsafe_set seqs !hole (Array.unsafe_get seqs child);
          Array.unsafe_set keys !hole (Array.unsafe_get keys child);
          hole := child
        end
        else sinking := false
      end
    done;
    Array.unsafe_set times !hole time;
    Array.unsafe_set seqs !hole seq;
    Array.unsafe_set keys !hole key
  end

let mem_seq t seq =
  let rec scan i = i < t.len && (t.seqs.(i) = seq || scan (i + 1)) in
  scan 0
