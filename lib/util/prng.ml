(* xoshiro256** state: four 64-bit words s0..s3 at byte offsets 0, 8, 16
   and 24.  [Bytes.get_int64_ne]/[set_int64_ne] are compiler primitives,
   so a draw reads and writes the words unboxed; four [mutable int64]
   record fields would box every state write instead. *)
type t = Bytes.t

(* splitmix64 is used only to expand seeds into full xoshiro state; it is
   the seeding procedure recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: advance the state, return the output.  Inlined
   into every draw so the result stays an unboxed register value. *)
let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne t 0 (logxor s0 s3);
  Bytes.set_int64_ne t 8 (logxor s1 s2);
  Bytes.set_int64_ne t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let bits64 t = next t

(* The top [64 - shift] bits of the next output as a native int; every
   draw narrower than 64 bits goes through here. *)
let[@inline] top t shift = Int64.to_int (Int64.shift_right_logical (next t) shift)

let split t = of_splitmix (ref (next t))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits removes modulo bias. *)
  let n = top t 2 in
  if bound land (bound - 1) = 0 then n land (bound - 1) else n mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 random bits mapped to [0,1). *)
let[@inline] unit_float t = float_of_int (top t 11) *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = top t 0 land 1 = 1

let bernoulli t p = unit_float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
