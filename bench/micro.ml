(* Bechamel microbenchmarks of the hot paths: the ESR checker, the lock
   manager, the simulation engine and network, the stores, and the PRNG —
   plus a bytes-per-op section (exact allocated-bytes deltas) that proves
   the apply/propagate path stays allocation-free once warm.  The ns/op and
   bytes/op numbers together are what guided the interned-key store work:
   a path is only "stripped" when its bytes/op column reads 0. *)

open Bechamel
open Toolkit
module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Mvstore = Esr_store.Mvstore
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Gtime = Esr_clock.Gtime
module Et = Esr_core.Et
module Hist = Esr_core.Hist
module Esr_check = Esr_core.Esr_check
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Engine = Esr_sim.Engine
module Heap = Esr_sim.Heap
module Net = Esr_sim.Net
module Prng = Esr_util.Prng

(* A representative mixed history: 12 ETs, 6 keys, 120 operations. *)
let bench_history =
  let prng = Prng.create 7 in
  let actions =
    List.init 120 (fun i ->
        let et = 1 + Prng.int prng 12 in
        let key = String.make 1 (Char.chr (Char.code 'a' + Prng.int prng 6)) in
        let op = if Prng.bool prng then Op.Read else Op.Write (Value.int i) in
        Et.action ~et ~key op)
  in
  Hist.of_actions actions

let test_esr_checker =
  Test.make ~name:"esr_check/is_epsilon_serial (120 ops)"
    (Staged.stage (fun () -> ignore (Esr_check.is_epsilon_serial bench_history)))

let test_overlap =
  Test.make ~name:"esr_check/max_overlap (120 ops)"
    (Staged.stage (fun () -> ignore (Esr_check.max_overlap bench_history)))

let test_lock_mgr =
  Test.make ~name:"lock_mgr/acquire+release x8"
    (Staged.stage (fun () ->
         let m = Lock_mgr.create ~table:Lock_table.ordup () in
         for txn = 1 to 8 do
           ignore
             (Lock_mgr.acquire m ~txn ~key:"k" ~mode:Lock_table.R_q ~op:Op.Read ())
         done;
         for txn = 1 to 8 do
           Lock_mgr.release_all m ~txn
         done))

(* One transaction locks one key and releases it, on a warm manager that
   has locked 256 keys once, as each site's manager in esrbench's
   sync_partition has: the release must not walk the idle keys. *)
let idle_keys_round () =
  let m = Lock_mgr.create () in
  let keys = Array.init 256 (Printf.sprintf "k%d") in
  Array.iteri
    (fun txn key ->
      ignore (Lock_mgr.acquire m ~txn ~key ~mode:Lock_table.W ());
      Lock_mgr.release_all m ~txn)
    keys;
  let txn = ref 256 in
  fun () ->
    incr txn;
    ignore (Lock_mgr.acquire m ~txn:!txn ~key:keys.(!txn land 255) ~mode:Lock_table.W ());
    Lock_mgr.release_all m ~txn:!txn

let test_lock_mgr_idle_keys =
  Test.make ~name:"lock_mgr/acquire+release, 256 idle keys"
    (Staged.stage (idle_keys_round ()))

let test_engine =
  Test.make ~name:"engine/schedule+run 1000 events"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 0 to 999 do
           ignore (Engine.schedule e ~delay:(float_of_int (i mod 97)) (fun () -> ()))
         done;
         Engine.run e))

let test_heap =
  let h = Heap.create ~hint:1024 () in
  Test.make ~name:"heap/push+drop_min x1000 (warm)"
    (Staged.stage (fun () ->
         for i = 0 to 999 do
           Heap.push h ~time:(float_of_int (i mod 97)) ~seq:i ~key:i i
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.min_payload h);
           Heap.drop_min h
         done))

(* One message 0 -> 1 whose arrival posts a reply 1 -> 0, then a drain:
   two port events through the loss-free default network.  Only floats
   are allocated: the boxed event times and clock values (~96 B). *)
let net_round_trip () =
  let e = Engine.create ~hint:1024 () in
  let net = Net.create e ~sites:2 ~prng:(Prng.create 1) in
  let back = Net.port ~cls:"ack" net (fun ~src:_ ~dst:_ _ -> ()) in
  let there =
    Net.port ~cls:"data" net (fun ~src ~dst seq ->
        Net.post net back ~src:dst ~dst:src seq)
  in
  fun () ->
    Net.post net there ~src:0 ~dst:1 0;
    Engine.run e

let test_net_round_trip =
  Test.make ~name:"net/post round trip" (Staged.stage (net_round_trip ()))

(* Shared fixtures for the store benches: one keyspace, keys interned
   once, stores pre-warmed so the timed loops measure steady state. *)
let bench_keys = Array.init 64 (fun i -> Printf.sprintf "key%02d" i)

let warm_store () =
  let ks = Keyspace.create ~hint:64 () in
  let s = Store.create ~size:64 ~keyspace:ks () in
  Array.iter (fun k -> Store.set s k (Value.int 1)) bench_keys;
  s

let test_store_get =
  let s = warm_store () in
  Test.make ~name:"store/get (string key) x64"
    (Staged.stage (fun () ->
         Array.iter (fun k -> ignore (Store.get s k)) bench_keys))

let test_store_get_id =
  let s = warm_store () in
  Test.make ~name:"store/get_id (interned) x64"
    (Staged.stage (fun () ->
         for id = 0 to 63 do
           ignore (Store.get_id s id)
         done))

let test_store_set_id =
  let s = warm_store () in
  let v = Value.int 7 in
  Test.make ~name:"store/set_id (interned) x64"
    (Staged.stage (fun () ->
         for id = 0 to 63 do
           Store.set_id s id v
         done))

let test_store_apply =
  Test.make ~name:"store/apply Incr x100 (result API)"
    (Staged.stage (fun () ->
         let s = Store.create () in
         for i = 1 to 100 do
           ignore (Store.apply s "x" (Op.Incr i))
         done))

let test_store_apply_unit =
  let s = warm_store () in
  let op = Op.Incr 1 in
  Test.make ~name:"store/apply_unit Incr x64 (string key)"
    (Staged.stage (fun () ->
         Array.iter (fun k -> ignore (Store.apply_unit s k op)) bench_keys))

let test_store_apply_id_unit =
  let s = warm_store () in
  let op = Op.Incr 1 in
  Test.make ~name:"store/apply_id_unit Incr x64 (interned)"
    (Staged.stage (fun () ->
         for id = 0 to 63 do
           ignore (Store.apply_id_unit s id op)
         done))

let test_keyspace_intern =
  let ks = Keyspace.create ~hint:64 () in
  Array.iter (fun k -> ignore (Keyspace.intern ks k)) bench_keys;
  Test.make ~name:"keyspace/intern hit x64"
    (Staged.stage (fun () ->
         Array.iter (fun k -> ignore (Keyspace.intern ks k)) bench_keys))

(* The propagate inner loop as the methods run it: an MSet's worth of
   pre-interned ops applied at one replica via the id path. *)
let test_mset_apply =
  let ks = Keyspace.create ~hint:64 () in
  let s = Store.create ~size:64 ~keyspace:ks () in
  let ops =
    Array.to_list
      (Array.map (fun k -> (Keyspace.intern ks k, Op.Incr 1)) bench_keys)
  in
  List.iter (fun (id, _) -> Store.set_id s id (Value.int 0)) ops;
  Test.make ~name:"mset/apply 64 interned ops at a replica"
    (Staged.stage (fun () ->
         List.iter (fun (id, op) -> ignore (Store.apply_id_unit s id op)) ops))

let test_mset_build =
  let ks = Keyspace.create ~hint:64 () in
  Array.iter (fun k -> ignore (Keyspace.intern ks k)) bench_keys;
  Test.make ~name:"mset/build 8 iops (intern + cons)"
    (Staged.stage (fun () ->
         let rec build i acc =
           if i < 0 then acc
           else
             build (i - 1)
               ((Keyspace.intern ks bench_keys.(i), Op.Incr 1) :: acc)
         in
         ignore (build 7 [])))

let test_mvstore =
  Test.make ~name:"mvstore/append+read x50"
    (Staged.stage (fun () ->
         let m = Mvstore.create () in
         for i = 1 to 50 do
           ignore
             (Mvstore.append m "x" ~ts:(Gtime.make ~counter:i ~site:0) (Value.int i))
         done;
         ignore (Mvstore.read_latest m "x")))

(* Sharded-routing hot path: the per-op membership test every method
   runs when applying a routed MSet, and the per-MSet destination-set
   union (reset + add the touched ids + iterate the replica union) that
   replaces a broadcast under partial replication. *)
let bench_sharding () =
  Sharding.create ~policy:Sharding.Ring ~shards:64 ~factor:3 ~sites:64 ()

let test_shard_lookup =
  let sh = bench_sharding () in
  Test.make ~name:"shard/replicates_id x64"
    (Staged.stage (fun () ->
         for id = 0 to 63 do
           ignore (Sharding.replicates_id sh ~site:(id land 7) ~id)
         done))

let test_shard_dests =
  let sh = bench_sharding () in
  let c = Sharding.Dests.cursor sh in
  Test.make ~name:"shard/dests reset+union 8 ids+iter"
    (Staged.stage (fun () ->
         Sharding.Dests.reset c;
         for id = 0 to 7 do
           Sharding.Dests.add_id c id
         done;
         Sharding.Dests.iter c ignore))

let test_prng =
  Test.make ~name:"prng/bits64 x1000"
    (Staged.stage
       (let prng = Prng.create 1 in
        fun () ->
          for _ = 1 to 1000 do
            ignore (Prng.bits64 prng)
          done))

let benchmarks =
  [
    test_esr_checker; test_overlap; test_lock_mgr; test_lock_mgr_idle_keys;
    test_engine; test_heap;
    test_net_round_trip;
    test_store_get; test_store_get_id; test_store_set_id; test_store_apply;
    test_store_apply_unit; test_store_apply_id_unit; test_keyspace_intern;
    test_mset_apply; test_mset_build; test_mvstore; test_shard_lookup;
    test_shard_dests; test_prng;
  ]

(* --- bytes per operation -------------------------------------------- *)

(* Bytes allocated so far.  On OCaml 5 [Gc.allocated_bytes] advances its
   minor part only at minor collections, so a short loop could read 0;
   [Gc.minor_words] also counts the current minor heap, which makes this
   exact. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* Bytes allocated per call of [f], as an [allocated_bytes] delta over
   [n] warm iterations, so a 0 here means the path genuinely does not
   allocate. *)
let bytes_per_op ?(n = 10_000) f =
  f ();
  (* warm: first call may grow tables/arrays *)
  let before = allocated_bytes () in
  for _ = 1 to n do
    f ()
  done;
  let after = allocated_bytes () in
  (after -. before) /. float_of_int n

let bytes_report () =
  print_endline "== Bytes/op (allocated-bytes delta, warm) ==";
  let row name per_call ops =
    (* per_call covers [ops] logical operations; report per-op. *)
    Printf.printf "  %-44s %10.1f bytes/op\n" name (per_call /. float_of_int ops)
  in
  let s = warm_store () in
  let op = Op.Incr 1 in
  row "store/get (string key)"
    (bytes_per_op (fun () ->
         Array.iter (fun k -> ignore (Store.get s k)) bench_keys))
    64;
  row "store/get_id (interned)"
    (bytes_per_op (fun () ->
         for id = 0 to 63 do
           ignore (Store.get_id s id)
         done))
    64;
  row "store/set_id (interned)"
    (let v = Value.int 7 in
     bytes_per_op (fun () ->
         for id = 0 to 63 do
           Store.set_id s id v
         done))
    64;
  row "store/apply_unit (string key)"
    (bytes_per_op (fun () ->
         Array.iter (fun k -> ignore (Store.apply_unit s k op)) bench_keys))
    64;
  row "store/apply_id_unit (interned)"
    (bytes_per_op (fun () ->
         for id = 0 to 63 do
           ignore (Store.apply_id_unit s id op)
         done))
    64;
  row "store/apply (result API, undo record)"
    (bytes_per_op (fun () ->
         Array.iter (fun k -> ignore (Store.apply s k op)) bench_keys))
    64;
  (let ks = Keyspace.create ~hint:64 () in
   Array.iter (fun k -> ignore (Keyspace.intern ks k)) bench_keys;
   row "keyspace/intern hit"
     (bytes_per_op (fun () ->
          Array.iter (fun k -> ignore (Keyspace.intern ks k)) bench_keys))
     64);
  (let sh = bench_sharding () in
   row "shard/replicates_id"
     (bytes_per_op (fun () ->
          for id = 0 to 63 do
            ignore (Sharding.replicates_id sh ~site:(id land 7) ~id)
          done))
     64;
   let c = Sharding.Dests.cursor sh in
   row "shard/dests reset+union 8 ids+iter"
     (bytes_per_op (fun () ->
          Sharding.Dests.reset c;
          for id = 0 to 7 do
            Sharding.Dests.add_id c id
          done;
          Sharding.Dests.iter c ignore))
     8);
  (let h = Heap.create ~hint:1024 () in
   row "heap/push+drop_min"
     (bytes_per_op (fun () ->
          for i = 0 to 63 do
            Heap.push h ~time:(float_of_int i) ~seq:i ~key:i i
          done;
          while not (Heap.is_empty h) do
            ignore (Heap.min_payload h);
            Heap.drop_min h
          done))
     128);
  row "net/post round trip" (bytes_per_op (net_round_trip ())) 1;
  row "lock_mgr/acquire+release, 256 idle keys" (bytes_per_op (idle_keys_round ())) 1;
  print_newline ()

let run_all () =
  print_endline "== Microbenchmarks (Bechamel OLS, monotonic clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let stats = Analyze.all ols Instance.monotonic_clock raw in
      let rows =
        Hashtbl.fold (fun name result acc -> (name, result) :: acc) stats []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "  %-44s %12.1f ns/run\n" name est
          | Some [] | None -> Printf.printf "  %-44s (no estimate)\n" name)
        rows)
    benchmarks;
  print_newline ();
  bytes_report ()
