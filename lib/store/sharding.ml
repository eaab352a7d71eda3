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

(* A shard's key ids are [shard], [shard + shards], ... (see
   [shard_of_id]), so both probes below walk one shard at a time and
   compare each replica's store with the shard's first replica, store by
   store: a sequential scan per store, as [Store.equal] does, instead of
   a hop across every replica for each key. *)
let converged t ~keyspace ~store =
  let n = Keyspace.size keyspace in
  let ok = ref true in
  let shard = ref 0 in
  while !ok && !shard < t.shards do
    let reps = t.replicas.(!shard) in
    let s0 = store reps.(0) in
    let i = ref 1 in
    while !ok && !i < Array.length reps do
      let s = store reps.(!i) in
      let id = ref !shard in
      while !ok && !id < n do
        if not (Value.equal (Store.get_id s0 !id) (Store.get_id s !id)) then
          ok := false;
        id := !id + t.shards
      done;
      incr i
    done;
    incr shard
  done;
  !ok

let divergent_replicas t ~keyspace ~store =
  let n_keys = Keyspace.size keyspace in
  let diverged = Array.make t.sites false in
  for shard = 0 to t.shards - 1 do
    let reps = t.replicas.(shard) in
    let s0 = store reps.(0) in
    for i = 1 to Array.length reps - 1 do
      let site = reps.(i) in
      let s = store site in
      let id = ref shard in
      while (not diverged.(site)) && !id < n_keys do
        if not (Value.equal (Store.get_id s0 !id) (Store.get_id s !id)) then
          diverged.(site) <- true;
        id := !id + t.shards
      done
    done
  done;
  let n = ref 0 in
  Array.iter (fun d -> if d then incr n) diverged;
  !n

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
