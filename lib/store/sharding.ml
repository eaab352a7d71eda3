(* Keyspace sharding and deterministic replica placement.

   Placement is a pure function of (sites, shards, factor, policy): every
   site derives the same shard -> replica-set map locally, so interest
   routing needs no coordination traffic.  Replica arrays are strictly
   ascending, and the [Dests] cursor iterates sites in ascending order,
   the order [Squeue.broadcast] sends in. *)

type policy = All | Ring | Hash

let policy_to_string = function All -> "all" | Ring -> "ring" | Hash -> "hash"

let policy_of_string = function
  | "all" -> Ok All
  | "ring" -> Ok Ring
  | "hash" -> Ok Hash
  | s -> Error (Printf.sprintf "unknown placement policy %S (all|ring|hash)" s)

type t = {
  sites : int;
  shards : int;
  factor : int;
  policy : policy;
  replicas : int array array;  (* shard -> ascending replica sites *)
  member : bool array;  (* (shard * sites + site) membership bitmap *)
}

(* SplitMix64 finalizer: deterministic, well-mixed site choice for the
   Hash policy without touching any PRNG stream the simulation uses. *)
let mix64 x =
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let hash_site ~sites ~shard ~probe =
  let h = mix64 (Int64.of_int ((shard * 0x10001) + (probe * 0x3d) + 1)) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int sites))

let place ~policy ~sites ~shards ~factor =
  let member = Array.make (shards * sites) false in
  let replicas =
    Array.init shards (fun shard ->
        let chosen = Array.make factor (-1) in
        let taken = Array.make sites false in
        (match policy with
        | All ->
            for j = 0 to factor - 1 do
              chosen.(j) <- j;
              taken.(j) <- true
            done
        | Ring ->
            for j = 0 to factor - 1 do
              let s = (shard + j) mod sites in
              chosen.(j) <- s;
              taken.(s) <- true
            done
        | Hash ->
            let probe = ref 0 in
            for j = 0 to factor - 1 do
              let rec pick () =
                let s = hash_site ~sites ~shard ~probe:!probe in
                incr probe;
                if taken.(s) then pick () else s
              in
              let s = pick () in
              chosen.(j) <- s;
              taken.(s) <- true
            done);
        Array.sort compare chosen;
        Array.iter (fun s -> member.((shard * sites) + s) <- true) chosen;
        chosen)
  in
  (replicas, member)

let create ?(policy = All) ?shards ?factor ~sites () =
  if sites < 1 then invalid_arg "Sharding.create: sites < 1";
  let factor =
    match factor with
    | Some f -> f
    | None -> ( match policy with All -> sites | Ring | Hash -> Stdlib.min 3 sites)
  in
  if factor < 1 || factor > sites then
    invalid_arg
      (Printf.sprintf "Sharding.create: factor %d outside 1..%d" factor sites);
  let shards =
    match shards with
    | Some s -> s
    | None -> ( match policy with All -> 1 | Ring | Hash -> sites)
  in
  if shards < 1 then invalid_arg "Sharding.create: shards < 1";
  (* factor = sites replicates everywhere no matter the policy; collapse
     to the All layout so every such map places shards identically. *)
  let policy = if factor >= sites then All else policy in
  let replicas, member = place ~policy ~sites ~shards ~factor in
  { sites; shards; factor; policy; replicas; member }

let full ~sites = create ~policy:All ~sites ()

let sites t = t.sites
let shards t = t.shards
let factor t = t.factor
let policy t = t.policy
let is_full t = t.factor >= t.sites

let shard_of_id t id =
  if id <= 0 || t.shards = 1 then 0 else id mod t.shards

let replicas t shard = t.replicas.(shard)

let replicates t ~site ~shard = t.member.((shard * t.sites) + site)

let replicates_id t ~site ~id = replicates t ~site ~shard:(shard_of_id t id)

let route_site t ~id ~site =
  if replicates_id t ~site ~id then site
  else
    let reps = t.replicas.(shard_of_id t id) in
    reps.(site mod Array.length reps)

(* Both probes walk each site's written keys once.  A key's first replica
   compares its copy with every other replica of the key's shard, and any
   other replica compares its copy with the first one: a key neither of a
   pair holds reads zero on both sides, so the keys either holds are all
   that can differ.  A site holding a key of a shard it does not
   replicate is not compared on it. *)
let converged t ~store =
  let agree site =
    let s = store site in
    Store.for_all_present s (fun id v ->
        let shard = shard_of_id t id in
        (not (replicates t ~site ~shard))
        ||
        let reps = t.replicas.(shard) in
        if reps.(0) = site then
          Array.for_all
            (fun r -> r = site || Value.equal v (Store.get_id (store r) id))
            reps
        else Value.equal v (Store.get_id (store reps.(0)) id))
  in
  let rec go site = site >= t.sites || (agree site && go (site + 1)) in
  go 0

let divergent_replicas t ~store =
  let diverged = Array.make t.sites false in
  for site = 0 to t.sites - 1 do
    Store.iter_present (store site) (fun id v ->
        let shard = shard_of_id t id in
        if replicates t ~site ~shard then begin
          let reps = t.replicas.(shard) in
          if reps.(0) = site then
            Array.iter
              (fun r ->
                if r <> site && not (Value.equal v (Store.get_id (store r) id))
                then diverged.(r) <- true)
              reps
          else if
            (not diverged.(site))
            && not (Value.equal v (Store.get_id (store reps.(0)) id))
          then diverged.(site) <- true
        end)
  done;
  Array.fold_left (fun n d -> if d then n + 1 else n) 0 diverged

type spread = { spread_max : float; spread_mean : float; divergent_keys : int }

(* Every key is visited once, from the first site found holding it, and
   its copies once each: the pairwise maximum of |x - y| over [Int]s is
   max - min, and a non-[Int] copy is 1 from any copy it differs from,
   which happens exactly when not all copies are equal. *)
let spread t ~keyspace ~store =
  let seen = Bytes.make (Keyspace.size keyspace) '\000' in
  let n_keys = ref 0 and divergent = ref 0 in
  let s_max = ref 0.0 and s_sum = ref 0.0 in
  let visit id _ =
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      incr n_keys;
      let reps = t.replicas.(shard_of_id t id) in
      let first = Store.get_id (store reps.(0)) id in
      let lo = ref max_int and hi = ref min_int in
      let all_equal = ref true and other = ref false in
      Array.iter
        (fun site ->
          let v = Store.get_id (store site) id in
          (match v with
          | Value.Int x ->
              if x < !lo then lo := x;
              if x > !hi then hi := x
          | Value.Str _ -> other := true);
          if not (Value.equal v first) then all_equal := false)
        reps;
      let ints = if !lo <= !hi then float_of_int (!hi - !lo) else 0.0 in
      let spread =
        if !other && not !all_equal then Float.max ints 1.0 else ints
      in
      if spread > 0.0 then incr divergent;
      s_max := Float.max !s_max spread;
      s_sum := !s_sum +. spread
    end
  in
  for site = 0 to t.sites - 1 do
    Store.iter_present (store site) visit
  done;
  {
    spread_max = !s_max;
    spread_mean = (if !n_keys = 0 then 0.0 else !s_sum /. float_of_int !n_keys);
    divergent_keys = !divergent;
  }

module Dests = struct
  type sharding = t

  type t = {
    sh : sharding;
    stamp : int array;  (* stamp.(site) = epoch  <=>  site is in the set *)
    mutable epoch : int;
    mutable n : int;
  }

  let cursor sh = { sh; stamp = Array.make sh.sites 0; epoch = 0; n = 0 }

  let reset c =
    c.epoch <- c.epoch + 1;
    c.n <- 0

  let add_site c site =
    if c.stamp.(site) <> c.epoch then begin
      c.stamp.(site) <- c.epoch;
      c.n <- c.n + 1
    end

  let add_shard c shard =
    let reps = c.sh.replicas.(shard) in
    for i = 0 to Array.length reps - 1 do
      add_site c reps.(i)
    done

  let add_id c id = add_shard c (shard_of_id c.sh id)
  let mem c site = c.stamp.(site) = c.epoch
  let count c = c.n

  let iter c f =
    let seen = ref 0 in
    let site = ref 0 in
    while !seen < c.n do
      if c.stamp.(!site) = c.epoch then begin
        incr seen;
        f !site
      end;
      incr site
    done
end

let pp ppf t =
  Format.fprintf ppf "sharding{policy=%s shards=%d factor=%d sites=%d}"
    (policy_to_string t.policy) t.shards t.factor t.sites
