type t = {
  mutable data : float array;
  mutable len : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable mn : float;
  mutable mx : float;
  mutable sorted : float array option;  (* cache invalidated by [add] *)
}

let create () =
  {
    data = Array.make 16 0.0;
    len = 0;
    sum = 0.0;
    sum_sq = 0.0;
    mn = infinity;
    mx = neg_infinity;
    sorted = None;
  }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  t.sorted <- None

let count t = t.len
let total t = t.sum
let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let variance t =
  if t.len < 2 then 0.0
  else
    let m = mean t in
    Float.max 0.0 ((t.sum_sq /. float_of_int t.len) -. (m *. m))

let stddev t = sqrt (variance t)
let min t = if t.len = 0 then 0.0 else t.mn
let max t = if t.len = 0 then 0.0 else t.mx

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub t.data 0 t.len in
      Array.sort compare s;
      t.sorted <- Some s;
      s

let percentile t p =
  if t.len = 0 then 0.0
  else begin
    let s = sorted t in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then s.(lo)
    else
      let frac = rank -. float_of_int lo in
      s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median t = percentile t 50.0
let values t = Array.sub t.data 0 t.len

let merge a b =
  let t = create () in
  Array.iter (add t) (values a);
  Array.iter (add t) (values b);
  t

let summary t =
  Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" (count t)
    (mean t) (median t) (percentile t 99.0) (max t)

module Histogram = struct
  type h = { bounds : float array; counts : int array; mutable n : int }

  let create ~buckets =
    let sorted_bounds = Array.copy buckets in
    Array.sort compare sorted_bounds;
    { bounds = sorted_bounds; counts = Array.make (Array.length buckets + 1) 0; n = 0 }

  let add h x =
    let rec find i =
      if i >= Array.length h.bounds then i
      else if x <= h.bounds.(i) then i
      else find (i + 1)
    in
    let i = find 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  let counts h = Array.copy h.counts
  let total h = h.n

  let pp ppf h =
    Format.fprintf ppf "@[<v>";
    Array.iteri
      (fun i c ->
        let label =
          if i < Array.length h.bounds then Printf.sprintf "<=%g" h.bounds.(i)
          else "overflow"
        in
        Format.fprintf ppf "%-10s %d@," label c)
      h.counts;
    Format.fprintf ppf "@]"
end
