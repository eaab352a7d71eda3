module Gtime = Esr_clock.Gtime

type key = string

type undo = { key : key; before : Value.t; before_ts : Gtime.t; applied : bool }

(* An open-addressing table over interned key ids, sized by the keys this
   store has written: [ids.(i)] is the key id held at slot [i] (or [-1]),
   and [values.(i)]/[stamps.(i)] are that key's value and last RITU write
   stamp.  The capacity is a power of two holding [count] at load <= 3/4
   (at 1/2, E15's ~8,600 keys a site took 32,768 slots instead of
   16,384), probes are linear from a Fibonacci hash of the id (ring
   placement hands a site the ids [shard + k * shards], which a plain
   mask would pile onto a few slots), and keys are never removed.  A key enters at its first
   write, whatever the value: [mem_id] is "ever written", as the dense
   array's sentinel test was.  Empty slots hold [Value.zero] and
   [Gtime.zero], which is also what a missing key reads as. *)
type t = {
  ks : Keyspace.t;
  mutable ids : int array;
  mutable values : Value.t array;
  mutable stamps : Gtime.t array;
  mutable count : int;
  mutable shift : int;  (* [Sys.int_size - log2 capacity] *)
}

let initial_bits = 3

let create ?keyspace () =
  let ks = match keyspace with Some ks -> ks | None -> Keyspace.create () in
  let n = 1 lsl initial_bits in
  {
    ks;
    ids = Array.make n (-1);
    values = Array.make n Value.zero;
    stamps = Array.make n Gtime.zero;
    count = 0;
    shift = Sys.int_size - initial_bits;
  }

let keyspace t = t.ks
let intern t key = Keyspace.intern t.ks key

(* floor(2^63 / golden ratio), odd: the top bits of [id * golden] spread
   consecutive ids and arithmetic strides alike. *)
let golden = 0x4F1BBCDCBFA53E0B
let home t id = (id * golden) lsr t.shift

(* Top-level probe loops: a local closure over [ids] would be allocated
   on every lookup. *)
let rec probe ids mask id i =
  let k = Array.unsafe_get ids i in
  if k = id then i
  else if k < 0 then -1
  else probe ids mask id ((i + 1) land mask)

let rec probe_free ids mask i =
  if Array.unsafe_get ids i < 0 then i
  else probe_free ids mask ((i + 1) land mask)

(* The slot holding [id], or -1. *)
let find t id =
  if id < 0 then -1
  else probe t.ids (Array.length t.ids - 1) id (home t id)

(* The first free slot on [id]'s probe run; [id] must be absent. *)
let free_slot t id = probe_free t.ids (Array.length t.ids - 1) (home t id)

let grow t =
  let ids = t.ids and values = t.values and stamps = t.stamps in
  let n = 2 * Array.length ids in
  t.ids <- Array.make n (-1);
  t.values <- Array.make n Value.zero;
  t.stamps <- Array.make n Gtime.zero;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i id ->
      if id >= 0 then begin
        let j = free_slot t id in
        t.ids.(j) <- id;
        t.values.(j) <- values.(i);
        t.stamps.(j) <- stamps.(i)
      end)
    ids

(* The slot of [id], entering it (as zero) at its first write. *)
let slot t id =
  let i = find t id in
  if i >= 0 then i
  else begin
    if id < 0 then invalid_arg "Store: write to a negative key id";
    if 4 * (t.count + 1) > 3 * Array.length t.ids then grow t;
    let i = free_slot t id in
    t.ids.(i) <- id;
    t.count <- t.count + 1;
    i
  end

let mem_id t id = find t id >= 0
let mem t key = mem_id t (Keyspace.find t.ks key)

let get_id t id =
  let i = find t id in
  if i < 0 then Value.zero else Array.unsafe_get t.values i

let get t key = get_id t (Keyspace.find t.ks key)

let get_ts_id t id =
  let i = find t id in
  if i < 0 then Gtime.zero else Array.unsafe_get t.stamps i

let get_ts t key = get_ts_id t (Keyspace.find t.ks key)

let set_id t id value = t.values.(slot t id) <- value
let set t key value = set_id t (intern t key) value

let set_with_ts_id t id value ts =
  let i = slot t id in
  t.values.(i) <- value;
  t.stamps.(i) <- ts

let set_with_ts t key value ts = set_with_ts_id t (intern t key) value ts

let apply_at t i key op =
  let before = t.values.(i) and before_ts = t.stamps.(i) in
  let undo = { key; before; before_ts; applied = true } in
  match op with
  | Op.Timed_write { ts; value } ->
      if Gtime.compare ts before_ts > 0 then begin
        t.values.(i) <- value;
        t.stamps.(i) <- ts;
        Ok undo
      end
      else Ok { undo with applied = false }
  | Op.Read -> Ok { undo with applied = false }
  | Op.Write _ | Op.Incr _ | Op.Mult _ | Op.Div _ | Op.Append _ -> (
      match Op.apply_value op before with
      | Ok v ->
          t.values.(i) <- v;
          Ok undo
      | Error e -> Error e)

let apply t key op = apply_at t (slot t (intern t key)) key op
let apply_id t id op = apply_at t (slot t id) (Keyspace.name t.ks id) op

(* Undo-free apply for callers that discard the before-image (the common
   case: every method but COMPE).  [Ok ()] is a static constant, so the
   success path allocates only when the new value itself is boxed. *)
let ok_unit : (unit, Op.apply_error) result = Ok ()

let apply_at_unit t i op =
  let values = t.values in
  match op with
  | Op.Read -> ok_unit
  | Op.Write v ->
      Array.unsafe_set values i v;
      ok_unit
  | Op.Incr d -> (
      match Array.unsafe_get values i with
      | Value.Int x ->
          Array.unsafe_set values i (Value.Int (x + d));
          ok_unit
      | Value.Str _ -> Error (Op.Type_mismatch "Incr on string value"))
  | Op.Mult k -> (
      match Array.unsafe_get values i with
      | Value.Int x ->
          Array.unsafe_set values i (Value.Int (x * k));
          ok_unit
      | Value.Str _ -> Error (Op.Type_mismatch "Mult on string value"))
  | Op.Div k -> (
      match (k, Array.unsafe_get values i) with
      | 0, Value.Int _ -> Error (Op.Division_error "Div by zero")
      | _, Value.Int x ->
          if x mod k <> 0 then
            Error
              (Op.Division_error
                 (Printf.sprintf "%d not divisible by %d" x k))
          else begin
            Array.unsafe_set values i (Value.Int (x / k));
            ok_unit
          end
      | _, Value.Str _ -> Error (Op.Type_mismatch "Div on string value"))
  | Op.Timed_write { ts; value } ->
      if Gtime.compare ts (Array.unsafe_get t.stamps i) > 0 then begin
        Array.unsafe_set values i value;
        Array.unsafe_set t.stamps i ts
      end;
      ok_unit
  | Op.Append { value = v; _ } ->
      Array.unsafe_set values i v;
      ok_unit

let apply_unit t key op = apply_at_unit t (slot t (intern t key)) op
let apply_id_unit t id op = apply_at_unit t (slot t id) op

let rollback t undo =
  let i = slot t (intern t undo.key) in
  if undo.applied then begin
    t.values.(i) <- undo.before;
    t.stamps.(i) <- undo.before_ts
  end

let iter_present t f =
  let ids = t.ids in
  for i = 0 to Array.length ids - 1 do
    let id = Array.unsafe_get ids i in
    if id >= 0 then f id (Array.unsafe_get t.values i)
  done

let for_all_present t f =
  let ids = t.ids in
  let n = Array.length ids in
  let rec go i =
    i >= n
    ||
    let id = Array.unsafe_get ids i in
    (id < 0 || f id (Array.unsafe_get t.values i)) && go (i + 1)
  in
  go 0

let keys t =
  let acc = ref [] in
  iter_present t (fun id _ -> acc := Keyspace.name t.ks id :: !acc);
  List.sort String.compare !acc

let snapshot t =
  let acc = ref [] in
  iter_present t (fun id v -> acc := (Keyspace.name t.ks id, v) :: !acc);
  List.sort (fun (ka, _) (kb, _) -> String.compare ka kb) !acc

let equal a b =
  if a.ks == b.ks then
    (* Shared keyspace: a key either store holds must read the same in
       the other, where a missing key reads [Value.zero]. *)
    let covers x y = for_all_present x (fun id v -> Value.equal v (get_id y id)) in
    covers a b && covers b a
  else
    (* Distinct keyspaces: fall back to name-based comparison; keys
       missing on one side still compare as [Value.zero]. *)
    let covers x y =
      List.for_all (fun (k, v) -> Value.equal v (get y k)) (snapshot x)
    in
    covers a b && covers b a

(* Values and stamps are immutable, so fresh columns are a copy. *)
let copy t =
  {
    t with
    ids = Array.copy t.ids;
    values = Array.copy t.values;
    stamps = Array.copy t.stamps;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%s = %a@," k Value.pp v)
    (snapshot t);
  Format.fprintf ppf "@]"

let live_words t =
  Obj.reachable_words (Obj.repr t.ids)
  + Obj.reachable_words (Obj.repr t.values)
  + Obj.reachable_words (Obj.repr t.stamps)
