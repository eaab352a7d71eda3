type t = {
  counts : (string, int) Hashtbl.t;
  weights : (string, float) Hashtbl.t;
}

let create () = { counts = Hashtbl.create 16; weights = Hashtbl.create 16 }

let count t key = Option.value (Hashtbl.find_opt t.counts key) ~default:0

let incr t key =
  let n = count t key + 1 in
  Hashtbl.replace t.counts key n;
  n

let decr t key =
  let n = count t key in
  if n <= 0 then invalid_arg (Printf.sprintf "Lock_counter.decr: %s is zero" key);
  if n = 1 then Hashtbl.remove t.counts key else Hashtbl.replace t.counts key (n - 1);
  n - 1

let total_nonzero t = Hashtbl.length t.counts

let would_exceed t key ~limit = count t key + 1 > limit

let weight t key = Option.value (Hashtbl.find_opt t.weights key) ~default:0.0

let add_weight t key w =
  let updated = weight t key +. Float.abs w in
  Hashtbl.replace t.weights key updated;
  updated

let remove_weight t key w =
  let updated = Float.max 0.0 (weight t key -. Float.abs w) in
  if updated = 0.0 then Hashtbl.remove t.weights key
  else Hashtbl.replace t.weights key updated;
  updated

let weight_would_exceed t key ~added ~limit =
  weight t key +. Float.abs added > limit +. 1e-9
