(* Unit and property tests for Esr_util: PRNG, distributions, statistics,
   the table renderer and the JSON codec. *)

module Prng = Esr_util.Prng
module Dist = Esr_util.Dist
module Stats = Esr_util.Stats
module Tablefmt = Esr_util.Tablefmt
module Json = Esr_util.Json

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_prng_copy () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy replays" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let parent = Prng.create 99 in
  let child = Prng.split parent in
  (* The child stream must not simply replay the parent. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 parent) (Prng.bits64 child) then incr same
  done;
  checkb "split streams diverge" true (!same < 4)

let test_prng_int_range () =
  let prng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.int prng 17 in
    checkb "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let prng = Prng.create 5 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let v = Prng.int_in prng (-3) 3 in
    checkb "in range" true (v >= -3 && v <= 3);
    if v = -3 then seen_lo := true;
    if v = 3 then seen_hi := true
  done;
  checkb "both endpoints reached" true (!seen_lo && !seen_hi)

let test_prng_int_invalid () =
  let prng = Prng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int prng 0))

let test_prng_float_range () =
  let prng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.float prng 2.5 in
    checkb "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_bias () =
  let prng = Prng.create 11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli prng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  checkb "p close to 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_prng_shuffle_permutation () =
  let prng = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle prng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_prng_choose () =
  let prng = Prng.create 3 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    checkb "member" true (Array.mem (Prng.choose prng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose prng [||]))

(* Known-answer vectors: the first outputs of [create 42] and of a [split]
   of it.  Every experiment table, trace digest and benchmark
   [model_digest] is a function of this stream, so a change to the
   generator's internals must reproduce it bit for bit. *)
let kat_create42 =
  ( [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
      0xb82154855a65ddb2L; 0xd99a2743ebe60087L ],
    [ 685; 775; 752; 48; 369; 646; 188; 601 ],
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
      0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1 ],
    [ false; false; true; true; false; false; false; true ] )

let kat_split =
  ( [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L;
      0x91d83a17b20e6585L; 0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L;
      0x3162280b9dcfa5efL; 0xb4f9f0541228b854L ],
    [ 132; 176; 457; 793; 287; 876; 947; 861 ],
    [ 0x1.1dc88ba28c638p-1; 0x1.06fa1a13296f8p-4; 0x1.ca69da2018912p-2;
      0x1.23b0742f641ccp-1; 0x1.c619efa217e38p-3; 0x1.c679a3725c5c8p-1;
      0x1.8b11405cee7dp-3; 0x1.69f3e0a824517p-1 ],
    [ true; false; true; true; true; true; true; false ] )

let check_kat name mk (bits, ints, floats, bools) =
  let draw f = let g = mk () in List.init 8 (fun _ -> f g) in
  check Alcotest.(list int64) (name ^ " bits64") bits (draw Prng.bits64);
  check Alcotest.(list int) (name ^ " int 1000") ints
    (draw (fun g -> Prng.int g 1000));
  check Alcotest.(list (float 0.0)) (name ^ " float 1.0") floats
    (draw (fun g -> Prng.float g 1.0));
  check Alcotest.(list bool) (name ^ " bool") bools (draw Prng.bool)

let test_prng_known_answers () =
  check_kat "create 42" (fun () -> Prng.create 42) kat_create42;
  check_kat "split" (fun () -> Prng.split (Prng.create 42)) kat_split

(* The narrow draws return native ints internally: at most a boxed float
   result (2 words) per draw, never a boxed [int64] per state word. *)
let test_prng_draws_allocation_free () =
  let g = Prng.create 42 and n = 100_000 in
  let per_draw f =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let within name words =
    checkb (Printf.sprintf "%s: %.2f words/draw <= 2" name words) true
      (words <= 2.0)
  in
  within "int" (per_draw (fun () -> ignore (Prng.int g 1000)));
  within "float" (per_draw (fun () -> ignore (Prng.float g 1.0)));
  within "bernoulli" (per_draw (fun () -> ignore (Prng.bernoulli g 0.5)))

(* --- Dist --- *)

let sample_mean dist seed n =
  let prng = Prng.create seed in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Dist.sample dist prng
  done;
  !total /. float_of_int n

let test_dist_constant () =
  check (Alcotest.float 1e-9) "constant" 4.2 (sample_mean (Dist.Constant 4.2) 1 100)

let test_dist_uniform_mean () =
  let m = sample_mean (Dist.Uniform (2.0, 6.0)) 2 50_000 in
  checkb "mean ~4" true (Float.abs (m -. 4.0) < 0.05)

let test_dist_exponential_mean () =
  let m = sample_mean (Dist.Exponential 10.0) 3 50_000 in
  checkb "mean ~10" true (Float.abs (m -. 10.0) < 0.3)

let test_dist_normal_mean () =
  let m = sample_mean (Dist.Normal (20.0, 2.0)) 4 50_000 in
  checkb "mean ~20" true (Float.abs (m -. 20.0) < 0.2)

let test_dist_nonnegative () =
  let prng = Prng.create 6 in
  List.iter
    (fun dist ->
      for _ = 1 to 5_000 do
        checkb "non-negative" true (Dist.sample dist prng >= 0.0)
      done)
    [
      Dist.Normal (1.0, 5.0);
      Dist.Lognormal (0.0, 1.0);
      Dist.Pareto (1.0, 1.5);
      Dist.Exponential 3.0;
    ]

let test_dist_analytic_means () =
  check (Alcotest.float 1e-9) "uniform" 4.0 (Dist.mean (Dist.Uniform (2.0, 6.0)));
  check (Alcotest.float 1e-9) "exp" 7.0 (Dist.mean (Dist.Exponential 7.0));
  checkb "pareto alpha<=1 infinite" true
    (Dist.mean (Dist.Pareto (1.0, 0.9)) = infinity)

let test_zipf_range_and_skew () =
  let gen = Dist.Zipf.create ~n:100 ~theta:0.99 in
  let prng = Prng.create 8 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let r = Dist.Zipf.sample gen prng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 100);
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 0 hottest" true (counts.(0) > counts.(50));
  checkb "rank 0 much hotter than rank 9" true (counts.(0) > 2 * counts.(9))

let test_zipf_uniform_theta_zero () =
  let gen = Dist.Zipf.create ~n:10 ~theta:0.0 in
  let prng = Prng.create 9 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Dist.Zipf.sample gen prng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iter
    (fun c ->
      let p = float_of_int c /. float_of_int n in
      checkb "roughly uniform" true (Float.abs (p -. 0.1) < 0.02))
    counts

(* --- Stats --- *)

let test_stats_empty () =
  let s = Stats.create () in
  checki "count" 0 (Stats.count s);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "min" 0.0 (Stats.min s);
  check (Alcotest.float 0.0) "max" 0.0 (Stats.max s);
  check (Alcotest.float 0.0) "p50" 0.0 (Stats.percentile s 50.0)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  checki "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median s);
  check (Alcotest.float 1e-9) "total" 15.0 (Stats.total s)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  check (Alcotest.float 1e-9) "p50 interpolates" 15.0 (Stats.percentile s 50.0);
  check (Alcotest.float 1e-9) "p0" 10.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 20.0 (Stats.percentile s 100.0)

let test_stats_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "variance" 4.0 (Stats.variance s);
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.stddev s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  checki "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_stats_growth () =
  let s = Stats.create () in
  for i = 1 to 10_000 do
    Stats.add s (float_of_int i)
  done;
  checki "count" 10_000 (Stats.count s);
  check (Alcotest.float 1e-6) "mean" 5000.5 (Stats.mean s);
  check (Alcotest.float 1e-6) "p99" 9900.01 (Stats.percentile s 99.0)

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0; 100.0 |] in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.0; 5.0; 50.0; 500.0; 5000.0 ];
  check Alcotest.(array int) "bucket counts" [| 2; 1; 1; 2 |]
    (Stats.Histogram.counts h);
  checki "total" 6 (Stats.Histogram.total h)

(* --- Tablefmt --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render_fixed () =
  let t = Tablefmt.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_row t [ "333" ];
  let out = Tablefmt.render t in
  Alcotest.(check bool) "has title" true (contains out "== T ==");
  Alcotest.(check bool) "contains 333" true (contains out "333");
  Alcotest.(check bool) "pads short rows" true (contains out "| 333 |")

let test_table_too_many_cells () =
  let t = Tablefmt.create ~title:"T" ~headers:[ "a" ] in
  Alcotest.(check bool) "raises" true
    (try
       Tablefmt.add_row t [ "1"; "2" ];
       false
     with Invalid_argument _ -> true)

let test_table_cells () =
  Alcotest.(check string) "float int-like" "3" (Tablefmt.cell_float 3.0);
  Alcotest.(check string) "float frac" "3.14" (Tablefmt.cell_float 3.14159);
  Alcotest.(check string) "int" "42" (Tablefmt.cell_int 42);
  Alcotest.(check string) "bool" "yes" (Tablefmt.cell_bool true)

(* --- qcheck properties --- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (samples, (p1, p2)) ->
      QCheck.assume (samples <> []);
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile s lo <= Stats.percentile s hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun samples ->
      QCheck.assume (samples <> []);
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Prng.shuffle (Prng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* --- Json --- *)

let is_error = function Ok _ -> false | Error _ -> true

let test_json_bad_unicode_escape () =
  List.iter
    (fun text -> checkb text true (is_error (Json.parse text)))
    [ {|"\uZZZZ"|}; {|"\u00zz"|}; {|"\u_1_2"|}; {|"\u+123"|}; {|"\u12"|}; {|["\u0041", "\uZZ"]|} ];
  check Alcotest.(result string string) "a good escape reads"
    (Ok "A\n") (Result.map (fun j -> Option.get (Json.to_string j)) (Json.parse {|"\u0041\u000a"|}))

let test_json_render_numbers () =
  List.iter
    (fun (v, text) -> check Alcotest.string text text (Json.render (Json.Num v)))
    [
      (0.0, "0"); (-0.0, "-0"); (42.0, "42"); (-7.0, "-7"); (0.5, "0.5");
      (0.1, "0.1"); (1e12, "1000000000000"); (999999999999999.0, "999999999999999");
      (1e15, "1e+15"); (Float.nan, "0"); (Float.infinity, "0");
    ];
  check Alcotest.string "int" "123" (Json.render (Json.int 123));
  check Alcotest.string "null" "null" (Json.render (Json.nullable Json.int None))

let test_json_output_lines () =
  let path = Filename.temp_file "esr_json" ".json" in
  let oc = open_out path in
  let rows = List.to_seq [ Json.int 1; Json.int 2 ] in
  Json.output_lines oc
    [ Same ("a", Json.Str "x\"y"); Next ("b", Json.Null); Rows ("r", rows); Block ("k", rows) ];
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "layout" "{\"a\":\"x\\\"y\",\n\"b\":null,\n\"r\":[1,\n2],\"k\":[\n1,\n2\n]}\n" text

(* One decoder for the tests below: an object with a required int, an
   optional int, a nullable float and a list of named records. *)
type doc = { n : int; opt : int; x : float option; items : (string * bool) list }

let doc_decoder j =
  let open Json.Decode in
  let item i = (field "name" (enum Fun.id [ "a"; "b" ]) i, field "on" bool i) in
  {
    n = field "n" int j;
    opt = field_or "opt" 7 int j;
    x = field "x" (nullable float) j;
    items = field "items" (list item) j;
  }

let test_json_decode () =
  let decode text = Json.Decode.of_string doc_decoder text in
  (match decode {|{"n":3,"x":null,"items":[{"name":"a","on":true}]}|} with
  | Ok d ->
      checki "n" 3 d.n;
      checki "absent optional takes its default" 7 d.opt;
      checkb "null" true (d.x = None);
      checkb "items" true (d.items = [ ("a", true) ])
  | Error m -> Alcotest.failf "rejected a good document: %s" m);
  List.iter
    (fun (text, msg) ->
      check Alcotest.(result reject string) text (Error msg) (decode text))
    [
      ({|{"n":1.5,"x":1,"items":[]}|}, "n: expected an integer, got 1.5");
      ({|{"n":1e300,"x":1,"items":[]}|}, "n: expected an integer, got 1e+300");
      ({|{"n":9007199254740994,"x":1,"items":[]}|}, "n: expected an integer, got 9007199254740994");
      ({|{"x":1,"items":[]}|}, "n: missing");
      ({|{"n":1,"opt":"2","x":1,"items":[]}|}, "opt: expected an integer, got a string");
      ({|{"n":1,"x":"1","items":[]}|}, "x: expected a number, got a string");
      ({|{"n":1,"x":1,"items":[{"name":"a","on":true},{"name":"c","on":true}]}|},
        {|items[1].name: unknown name "c"|});
      ({|{"n":1,"x":1,"items":[{"name":"a","on":1}]}|}, "items[0].on: expected a boolean, got 1");
      ({|{"n":1,"x":1,"items":{}}|}, "items: expected an array, got an object");
      ("[1]", "expected an object, got an array");
    ];
  checkb "a parse error is an Error" true (is_error (decode "{\"n\":"));
  check Alcotest.(result int string) "fail names the field" (Error "n: odd")
    (Json.Decode.(of_string (field "n" (fun j -> if int j mod 2 = 1 then fail "odd" else 0))) {|{"n":3}|})

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_percentile_monotone; prop_mean_between_min_max; prop_shuffle_preserves_multiset ]

let () =
  Alcotest.run "esr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_prng_bernoulli_bias;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "known-answer vectors" `Quick test_prng_known_answers;
          Alcotest.test_case "draws allocate at most a float" `Quick
            test_prng_draws_allocation_free;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "uniform mean" `Quick test_dist_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "normal mean" `Quick test_dist_normal_mean;
          Alcotest.test_case "non-negative" `Quick test_dist_nonnegative;
          Alcotest.test_case "analytic means" `Quick test_dist_analytic_means;
          Alcotest.test_case "zipf skew" `Quick test_zipf_range_and_skew;
          Alcotest.test_case "zipf theta=0 uniform" `Quick test_zipf_uniform_theta_zero;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolation;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "growth" `Quick test_stats_growth;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render_fixed;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "bad \\u escape is a parse error" `Quick
            test_json_bad_unicode_escape;
          Alcotest.test_case "numbers render as integers or shortest floats" `Quick
            test_json_render_numbers;
          Alcotest.test_case "multi-line layouts" `Quick test_json_output_lines;
          Alcotest.test_case "decoder names the failing field" `Quick test_json_decode;
        ] );
      ("properties", qcheck_tests);
    ]
