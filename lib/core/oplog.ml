module Op = Esr_store.Op
module Keyspace = Esr_store.Keyspace

let chunk_bits = 8
let chunk = 1 lsl chunk_bits

(* Entry [n] lives at slot [n land (chunk - 1)] of chunk [n lsr chunk_bits]
   in each column.  The chunk directories double (a directory slot per 256
   entries), the chunks never move, and the first [allocated] chunks of
   each column exist.  A key never interned is kept in [strays] and its
   entry's id is [-1 - index]. *)
type t = {
  ks : Keyspace.t;
  mutable ets : int array array;
  mutable ids : int array array;
  mutable ops : Op.t array array;
  mutable allocated : int;
  mutable len : int;
  mutable strays : string array;
  mutable n_strays : int;
}

let create ks =
  {
    ks;
    ets = [||];
    ids = [||];
    ops = [||];
    allocated = 0;
    len = 0;
    strays = [||];
    n_strays = 0;
  }

let widen dir fill =
  let bigger = Array.make (Stdlib.max 4 (2 * Array.length dir)) fill in
  Array.blit dir 0 bigger 0 (Array.length dir);
  bigger

let add_chunk t =
  let c = t.allocated in
  if c = Array.length t.ets then begin
    t.ets <- widen t.ets [||];
    t.ids <- widen t.ids [||];
    t.ops <- widen t.ops [||]
  end;
  t.ets.(c) <- Array.make chunk 0;
  t.ids.(c) <- Array.make chunk 0;
  t.ops.(c) <- Array.make chunk Op.Read;
  t.allocated <- c + 1

let append t ~et ~id op =
  let n = t.len in
  let c = n lsr chunk_bits and i = n land (chunk - 1) in
  if c = t.allocated then add_chunk t;
  Array.unsafe_set (Array.unsafe_get t.ets c) i et;
  Array.unsafe_set (Array.unsafe_get t.ids c) i id;
  Array.unsafe_set (Array.unsafe_get t.ops c) i op;
  t.len <- n + 1

let append_key t ~et ~key op =
  let id = Keyspace.find t.ks key in
  let id =
    if id >= 0 then id
    else begin
      if t.n_strays = Array.length t.strays then t.strays <- widen t.strays "";
      t.strays.(t.n_strays) <- key;
      t.n_strays <- t.n_strays + 1;
      -t.n_strays
    end
  in
  append t ~et ~id op;
  id

let length t = t.len

let clear t =
  for c = 0 to ((t.len + chunk - 1) lsr chunk_bits) - 1 do
    Array.fill t.ops.(c) 0 chunk Op.Read
  done;
  t.len <- 0;
  Array.fill t.strays 0 t.n_strays "";
  t.n_strays <- 0

let iter t f =
  for n = 0 to t.len - 1 do
    let c = n lsr chunk_bits and i = n land (chunk - 1) in
    f t.ets.(c).(i) t.ids.(c).(i) t.ops.(c).(i)
  done

let bytes t = t.len * 3 * (Sys.word_size / 8)

let to_hist t =
  let name id = if id >= 0 then Keyspace.name t.ks id else t.strays.(-1 - id) in
  let actions = ref [] in
  iter t (fun et id op -> actions := Et.action ~et ~key:(name id) op :: !actions);
  Hist.of_actions (List.rev !actions)
