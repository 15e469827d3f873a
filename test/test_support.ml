module Dyn = Taco_support.Dyn_array
module Prng = Taco_support.Prng
module Util = Taco_support.Util
module Ivec = Taco_support.Ivec
module Memo = Taco_support.Memo
module Metrics = Taco_support.Metrics

let test_dyn_int_push () =
  let t = Dyn.Int.create () in
  for x = 0 to 99 do
    Dyn.Int.push t x
  done;
  Alcotest.(check int) "length" 100 (Dyn.Int.length t);
  Alcotest.(check int) "get 42" 42 (Dyn.Int.get t 42);
  Alcotest.(check (array int)) "to_array" (Array.init 100 Fun.id) (Dyn.Int.to_array t)

let test_dyn_int_ensure () =
  let t = Dyn.Int.create () in
  Dyn.Int.push t 7;
  Dyn.Int.ensure t 5;
  Alcotest.(check int) "length after ensure" 5 (Dyn.Int.length t);
  Alcotest.(check (array int)) "zero fill" [| 7; 0; 0; 0; 0 |] (Dyn.Int.to_array t);
  Dyn.Int.ensure t 3;
  Alcotest.(check int) "ensure never shrinks" 5 (Dyn.Int.length t)

let test_dyn_int_bounds () =
  let t = Dyn.Int.create () in
  Dyn.Int.push t 1;
  Alcotest.check_raises "get out of range" (Invalid_argument "Dyn_array.Int.get")
    (fun () -> ignore (Dyn.Int.get t 1));
  Alcotest.check_raises "set out of range" (Invalid_argument "Dyn_array.Int.set")
    (fun () -> Dyn.Int.set t 3 0)

let test_dyn_int_sort () =
  let t = Dyn.Int.of_array [| 5; 3; 9; 1 |] in
  Dyn.Int.sort t;
  Alcotest.(check (array int)) "sorted" [| 1; 3; 5; 9 |] (Dyn.Int.to_array t)

let test_dyn_float_roundtrip () =
  let t = Dyn.Float.of_array [| 1.5; -2.25 |] in
  Dyn.Float.push t 3.75;
  Alcotest.(check (array (float 0.))) "roundtrip" [| 1.5; -2.25; 3.75 |]
    (Dyn.Float.to_array t);
  Dyn.Float.clear t;
  Alcotest.(check int) "cleared" 0 (Dyn.Float.length t)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let p = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.int p 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of bounds";
    let f = Prng.float p in
    if f < 0. || f >= 1. then Alcotest.fail "float out of bounds"
  done

let test_prng_split_independent () =
  let p = Prng.create 9 in
  let q = Prng.split p in
  let a1 = Prng.int p 1000000 in
  let b1 = Prng.int q 1000000 in
  Alcotest.(check bool) "streams differ" true (a1 <> b1 || Prng.int p 1000000 <> Prng.int q 1000000)

let test_sample_without_replacement () =
  let p = Prng.create 11 in
  let s = Prng.sample_without_replacement p ~n:100 ~k:30 in
  Alcotest.(check int) "size" 30 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "already sorted" sorted s;
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 30 (List.length distinct);
  Array.iter (fun x -> if x < 0 || x >= 100 then Alcotest.fail "out of range") s

let test_sample_full_range () =
  let p = Prng.create 13 in
  let s = Prng.sample_without_replacement p ~n:10 ~k:10 in
  Alcotest.(check (array int)) "k = n takes everything" (Array.init 10 Fun.id) s

let test_binary_search () =
  let a = Ivec.of_array [| 1; 3; 5; 7; 9; 11 |] in
  Alcotest.(check (option int)) "found" (Some 2) (Util.binary_search a 0 6 5);
  Alcotest.(check (option int)) "absent" None (Util.binary_search a 0 6 6);
  Alcotest.(check (option int)) "outside slice" None (Util.binary_search a 0 2 5);
  Alcotest.(check (option int)) "in slice" (Some 4) (Util.binary_search a 3 6 9)

let test_sort_paired () =
  let keys = Ivec.of_array [| 9; 3; 7; 1 |] and payload = [| 9.; 3.; 7.; 1. |] in
  Util.sort_paired keys payload 0 4;
  Alcotest.(check (array int)) "keys" [| 1; 3; 7; 9 |] (Ivec.to_array keys);
  Alcotest.(check (array (float 0.))) "payload follows" [| 1.; 3.; 7.; 9. |] payload

let test_sort_paired_slice () =
  let keys = Ivec.of_array [| 9; 3; 7; 1 |] and payload = [| 9.; 3.; 7.; 1. |] in
  Util.sort_paired keys payload 1 3;
  Alcotest.(check (array int)) "only the slice" [| 9; 3; 7; 1 |] (Ivec.to_array keys)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 3. (Util.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Util.median [ 4.; 1.; 2.; 3. ])

let test_dedup_subsets () =
  Alcotest.(check (list int)) "dedup keeps order" [ 3; 1; 2 ]
    (Util.dedup_stable [ 3; 1; 3; 2; 1 ]);
  Alcotest.(check int) "subset count" 8 (List.length (Util.subsets [ 1; 2; 3 ]))

let prop_binary_search_agrees =
  Helpers.qcheck_case "binary_search agrees with linear search"
    QCheck.(pair (list_of_size Gen.(1 -- 30) (0 -- 50)) (0 -- 50))
    (fun (xs, x) ->
      let a = Array.of_list (List.sort_uniq compare xs) in
      let n = Array.length a in
      let expected = Array.exists (( = ) x) a in
      let got = Util.binary_search (Ivec.of_array a) 0 n x <> None in
      expected = got)

let prop_sample_distinct =
  Helpers.qcheck_case "sample_without_replacement yields distinct sorted values"
    QCheck.(pair (1 -- 200) (0 -- 200))
    (fun (n, seed) ->
      let p = Prng.create seed in
      let k = min n (1 + (seed mod n)) in
      let s = Prng.sample_without_replacement p ~n ~k in
      Array.length s = k
      && List.length (List.sort_uniq compare (Array.to_list s)) = k
      && Array.for_all (fun x -> x >= 0 && x < n) s)

(* --- Memo ------------------------------------------------------------ *)

let check_stats what (hits, misses, entries, evictions, coalesced) t =
  let s = Memo.stats t in
  Alcotest.(check (list int))
    (what ^ ": hits, misses, entries, evictions, coalesced")
    [ hits; misses; entries; evictions; coalesced ]
    [ s.Memo.hits; s.Memo.misses; s.Memo.entries; s.Memo.evictions; s.Memo.coalesced ]

let spin_until p =
  while not (p ()) do
    Domain.cpu_relax ()
  done

let test_map_lefts () =
  let xs = [ Either.Left 1; Either.Right "r"; Either.Left 2 ] in
  Alcotest.(check (list string)) "lefts replaced in order, rights kept" [ "1!"; "r"; "2!" ]
    (Util.map_lefts (List.map (fun i -> string_of_int i ^ "!")) xs);
  Alcotest.check_raises "too few results" (Invalid_argument "Util.map_lefts: too few results")
    (fun () -> ignore (Util.map_lefts (fun _ -> [ "x" ]) xs : string list))

(* Four domains ask for one missing key; the build holds until all four
   have asked, so three of them must wait on it. *)
let test_memo_single_flight () =
  let t = Memo.create ~name:"memo_sf" ~capacity:4 in
  let builds = Atomic.make 0 and arrived = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    spin_until (fun () -> Atomic.get arrived = 4);
    Unix.sleepf 0.05;
    42
  in
  let ask () =
    Domain.spawn (fun () ->
        Atomic.incr arrived;
        Memo.find_or_build t "k" build)
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> ask ())) in
  Alcotest.(check (list int)) "every domain gets the value" [ 42; 42; 42; 42 ] results;
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  check_stats "after the race" (3, 1, 1, 0, 3) t

(* A build that raises is not inserted; the domain waiting on it wakes
   and builds the key itself. *)
let test_memo_raising_build () =
  let t = Memo.create ~name:"memo_raise" ~capacity:4 in
  let building = Atomic.make false and waiting = Atomic.make false in
  let first =
    Domain.spawn (fun () ->
        match
          Memo.find_or_build t "k" (fun () ->
              Atomic.set building true;
              spin_until (fun () -> Atomic.get waiting);
              Unix.sleepf 0.05;
              failwith "build failed")
        with
        | _ -> None
        | exception Failure msg -> Some msg)
  in
  let second =
    Domain.spawn (fun () ->
        spin_until (fun () -> Atomic.get building);
        Atomic.set waiting true;
        Memo.find_or_build t "k" (fun () -> 7))
  in
  Alcotest.(check (option string)) "the builder sees its exception" (Some "build failed")
    (Domain.join first);
  Alcotest.(check int) "the waiter retries and builds" 7 (Domain.join second);
  check_stats "one successful build" (0, 1, 1, 0, 0) t;
  Alcotest.(check (result int string)) "an Error is not inserted either" (Error "no")
    (Memo.find_or_build_result t "e" (fun () -> Error "no"));
  check_stats "failed builds leave no entry" (0, 1, 1, 0, 0) t

let test_memo_valid_rejection () =
  let t = Memo.create ~name:"memo_valid" ~capacity:4 in
  Alcotest.(check int) "first build" 1 (Memo.find_or_build t "k" (fun () -> 1));
  Alcotest.(check int) "rejected entry is rebuilt" 2
    (Memo.find_or_build ~valid:(fun v -> v >= 2) t "k" (fun () -> 2));
  check_stats "the rejection counts a miss" (0, 2, 1, 0, 0) t;
  Alcotest.(check int) "the rebuilt value replaced the entry" 2
    (Memo.find_or_build t "k" (fun () -> 3));
  check_stats "then it hits" (1, 2, 1, 0, 0) t

(* A lookup alone: a valid entry is a counted hit; an absent or invalid
   one is [None] and counts nothing, leaving the miss to the build. *)
let test_memo_find () =
  let t = Memo.create ~name:"memo_find" ~capacity:4 in
  Alcotest.(check (option int)) "absent" None (Memo.find t "k");
  check_stats "an absent lookup counts nothing" (0, 0, 0, 0, 0) t;
  ignore (Memo.find_or_build t "k" (fun () -> 1) : int);
  Alcotest.(check (option int)) "present" (Some 1) (Memo.find t "k");
  Alcotest.(check (option int)) "present but invalid" None
    (Memo.find ~valid:(fun v -> v >= 2) t "k");
  check_stats "one hit, the build's miss" (1, 1, 1, 0, 0) t

(* Several keys at once: a hit, a repeated key that shares one build, an
   Error that is returned and not inserted; [build] sees only the claimed
   positions. A key another domain is building is awaited, after the
   caller's own build, as a coalesced hit. *)
let test_memo_batch () =
  let t = Memo.create ~name:"memo_batch" ~capacity:8 in
  ignore (Memo.find_or_build t "a" (fun () -> 1) : int);
  let any _ = true in
  let claimed = ref [] in
  let results =
    Memo.find_or_build_all t
      [ ("a", any); ("b", any); ("b", any); ("c", any) ]
      (fun positions ->
        claimed := positions;
        [ Ok 2; Error "bad" ])
  in
  Alcotest.(check (list int)) "build gets the claimed positions" [ 1; 3 ] !claimed;
  Alcotest.(check (list (result int string)))
    "results in item order" [ Ok 1; Ok 2; Ok 2; Error "bad" ] results;
  check_stats "a hit, a shared build, an Error left out" (2, 2, 2, 0, 1) t;
  let building = Atomic.make false and waiting = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Memo.find_or_build t "k" (fun () ->
            Atomic.set building true;
            spin_until (fun () -> Atomic.get waiting);
            Unix.sleepf 0.05;
            10))
  in
  spin_until (fun () -> Atomic.get building);
  let results =
    Memo.find_or_build_all t
      [ ("k", any); ("m", any) ]
      (fun positions ->
        Atomic.set waiting true;
        Alcotest.(check (list int)) "the key in flight is not claimed" [ 1 ] positions;
        [ Ok 20 ])
  in
  Alcotest.(check int) "the other domain's build" 10 (Domain.join other);
  Alcotest.(check (list (result int string))) "awaited and built" [ Ok 10; Ok 20 ] results;
  check_stats "the awaited key is a coalesced hit" (3, 4, 4, 0, 2) t

let test_memo_clear () =
  let t = Memo.create ~name:"memo_clear" ~capacity:1 in
  List.iter (fun k -> ignore (Memo.find_or_build t k (fun () -> k) : string)) [ "a"; "a"; "b" ];
  check_stats "before clear" (1, 2, 1, 1, 0) t;
  Memo.clear t;
  check_stats "clear resets everything" (0, 0, 0, 0, 0) t;
  ignore (Memo.find_or_build t "b" (fun () -> "b") : string);
  check_stats "a cleared key misses" (0, 1, 1, 0, 0) t

(* Each table counts under its own name in the registry. *)
let test_memo_counter_names () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let t = Memo.create ~name:"memo_names" ~capacity:1 in
      List.iter (fun k -> ignore (Memo.find_or_build t k (fun () -> k) : string)) [ "a"; "a"; "b" ];
      let snap = Metrics.snapshot () in
      List.iter
        (fun (name, n) ->
          Alcotest.(check (option int)) name (Some n) (List.assoc_opt (name, []) snap.Metrics.counters))
        [
          ("taco_memo_names_cache_hits_total", 1);
          ("taco_memo_names_cache_misses_total", 2);
          ("taco_memo_names_cache_evictions_total", 1);
        ];
      Alcotest.(check (option (float 0.))) "size gauge" (Some 1.)
        (List.assoc_opt ("taco_memo_names_cache_size", []) snap.Metrics.gauges))

(* --- carrier-local state ---------------------------------------------- *)

module Carrier = Taco_support.Carrier

(* Each thread of a domain, and each domain, gets a value of its own
   from a key, built once and kept for the carrier's later reads. *)
let test_carrier_per_thread () =
  let built = Atomic.make 0 in
  let key =
    Carrier.new_key (fun () ->
        Atomic.incr built;
        ref 0)
  in
  let bump n =
    for _ = 1 to n do
      incr (Carrier.get key);
      Thread.yield ()
    done;
    (Carrier.id (), !(Carrier.get key))
  in
  let results = Array.make 4 (0, 0) in
  let threads = List.init 4 (fun i -> Thread.create (fun () -> results.(i) <- bump (100 * (i + 1))) ()) in
  let main = bump 7 in
  List.iter Thread.join threads;
  let in_domain = Domain.join (Domain.spawn (fun () -> bump 3)) in
  Array.iteri
    (fun i (_, n) -> Alcotest.(check int) (Printf.sprintf "thread %d counts its own" i) (100 * (i + 1)) n)
    results;
  Alcotest.(check int) "the main thread counts its own" 7 (snd main);
  Alcotest.(check int) "a spawned domain counts its own" 3 (snd in_domain);
  let ids = main :: in_domain :: Array.to_list results |> List.map fst in
  Alcotest.(check int) "carrier ids are distinct" 6 (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "one value built per carrier" 6 (Atomic.get built)

let () =
  Alcotest.run "support"
    [
      ( "dyn_array",
        [
          Alcotest.test_case "int push/get/to_array" `Quick test_dyn_int_push;
          Alcotest.test_case "int ensure zero-fills" `Quick test_dyn_int_ensure;
          Alcotest.test_case "int bounds checking" `Quick test_dyn_int_bounds;
          Alcotest.test_case "int sort" `Quick test_dyn_int_sort;
          Alcotest.test_case "float roundtrip and clear" `Quick test_dyn_float_roundtrip;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_prng_deterministic;
          Alcotest.test_case "bounded outputs" `Quick test_prng_bounds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "floyd sampling" `Quick test_sample_without_replacement;
          Alcotest.test_case "sampling the full range" `Quick test_sample_full_range;
          prop_sample_distinct;
        ] );
      ( "util",
        [
          Alcotest.test_case "binary_search" `Quick test_binary_search;
          Alcotest.test_case "sort_paired" `Quick test_sort_paired;
          Alcotest.test_case "sort_paired slice only" `Quick test_sort_paired_slice;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "dedup and subsets" `Quick test_dedup_subsets;
          Alcotest.test_case "map_lefts" `Quick test_map_lefts;
          prop_binary_search_agrees;
        ] );
      ( "memo",
        [
          Alcotest.test_case "four domains, one build" `Quick test_memo_single_flight;
          Alcotest.test_case "raising build, waiter retries" `Quick test_memo_raising_build;
          Alcotest.test_case "valid rejection rebuilds" `Quick test_memo_valid_rejection;
          Alcotest.test_case "clear resets everything" `Quick test_memo_clear;
          Alcotest.test_case "metric names" `Quick test_memo_counter_names;
          Alcotest.test_case "several keys at once" `Quick test_memo_batch;
          Alcotest.test_case "lookup without a build" `Quick test_memo_find;
        ] );
      ("carrier", [ Alcotest.test_case "a value per thread and domain" `Quick test_carrier_per_thread ]);
    ]
