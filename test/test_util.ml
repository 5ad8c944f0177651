(* Unit and property tests for the utility substrate. *)

let test_rng_deterministic () =
  let a = Sutil.Rng.create 42 and b = Sutil.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sutil.Rng.int a max_int)
      (Sutil.Rng.int b max_int)
  done

let test_rng_seed_sensitivity () =
  let a = Sutil.Rng.create 1 and b = Sutil.Rng.create 2 in
  let xs = List.init 10 (fun _ -> Sutil.Rng.int a max_int) in
  let ys = List.init 10 (fun _ -> Sutil.Rng.int b max_int) in
  Alcotest.(check bool) "different seeds differ" false (xs = ys)

let test_rng_bounds () =
  let rng = Sutil.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Sutil.Rng.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.failf "out of range: %d" x
  done

let test_rng_nonnegative () =
  let rng = Sutil.Rng.create 99 in
  for _ = 1 to 10_000 do
    if Sutil.Rng.int rng max_int < 0 then Alcotest.fail "negative rng output"
  done

let test_rng_int_rejects_zero () =
  let rng = Sutil.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sutil.Rng.int rng 0))

let test_shuffle_permutes () =
  let rng = Sutil.Rng.create 5 in
  let a = Array.init 20 Fun.id in
  let s = Sutil.Rng.shuffle rng a in
  Alcotest.(check (list int))
    "same multiset"
    (List.sort compare (Array.to_list a))
    (List.sort compare (Array.to_list s))

let test_subsets_count () =
  Alcotest.(check int) "15 non-empty" 15
    (List.length (Sutil.Combi.nonempty_subsets [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "empty list" 0
    (List.length (Sutil.Combi.nonempty_subsets []))

let test_subsets_distinct () =
  let ss = Sutil.Combi.nonempty_subsets [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "all distinct" (List.length ss)
    (List.length (List.sort_uniq compare ss))

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Sutil.Combi.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take more" [ 1 ] (Sutil.Combi.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Sutil.Combi.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Sutil.Combi.drop 5 [ 1 ])

let prop_take_drop =
  Thelpers.qtest "take n @ drop n = id"
    QCheck.(pair small_nat (small_list int))
    (fun (n, l) -> Sutil.Combi.take n l @ Sutil.Combi.drop n l = l)

let prop_subsets_subset =
  Thelpers.qtest ~count:50 "every subset is a sub-multiset"
    QCheck.(list_of_size (QCheck.Gen.int_bound 6) small_int)
    (fun l ->
      List.for_all
        (fun s -> List.for_all (fun x -> List.mem x l) s)
        (Sutil.Combi.nonempty_subsets l))

let test_pool_parallel_for () =
  Sutil.Pool.with_pool ~workers:4 (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Sutil.Pool.parallel_for pool n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* nested: a loop submitted from inside a task still completes *)
      let out = Array.make 8 0 in
      Sutil.Pool.parallel_for pool 8 (fun i ->
          Sutil.Pool.parallel_for pool 4 (fun _ -> ());
          out.(i) <- i);
      Alcotest.(check bool) "nested loops finish" true
        (Array.for_all2 (fun v i -> v = i) out (Array.init 8 Fun.id)))

let test_pool_init_and_errors () =
  Sutil.Pool.with_pool ~workers:3 (fun pool ->
      let a = Sutil.Pool.parallel_init pool 100 (fun i -> i * i) in
      Alcotest.(check bool) "init slots" true
        (Array.for_all2 ( = ) a (Array.init 100 (fun i -> i * i)));
      Alcotest.check_raises "exception re-raised" (Failure "boom") (fun () ->
          Sutil.Pool.parallel_for pool 10 (fun i ->
              if i = 7 then failwith "boom")));
  (* workers=1 never spawns a domain and runs inline *)
  Sutil.Pool.with_pool ~workers:1 (fun pool ->
      let r = ref 0 in
      Sutil.Pool.parallel_for pool 5 (fun i -> r := !r + i);
      Alcotest.(check int) "inline sum" 10 !r)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "non-negative" `Quick test_rng_nonnegative;
          Alcotest.test_case "zero bound" `Quick test_rng_int_rejects_zero;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        ] );
      ( "combi",
        [
          Alcotest.test_case "subset counts" `Quick test_subsets_count;
          Alcotest.test_case "subsets distinct" `Quick test_subsets_distinct;
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          prop_take_drop;
          prop_subsets_subset;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "init and errors" `Quick
            test_pool_init_and_errors;
        ] );
    ]
