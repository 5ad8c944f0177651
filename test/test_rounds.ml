open Sphys

(* Round-search tests (Algorithm 4 line 7 + Section VIII-A sequencing),
   including the paper's 8+8-properties example: 64 rounds without the
   independence decomposition, 15 with it. *)

let cs = Thelpers.colset

let prop i = Reqprops.make (Reqprops.Hash_exact (cs [ Printf.sprintf "C%d" i ])) []

let props n = List.init n prop

let test_single_group () =
  let rounds = Thelpers.rounds [ [ (1, props 5) ] ] in
  Alcotest.(check int) "one round per property" 5 (List.length rounds);
  (* each assignment covers exactly group 1 *)
  List.iter
    (fun a -> Alcotest.(check (list int)) "group" [ 1 ] (List.map fst a))
    rounds

let test_product_order_first_varies_fastest () =
  let rounds = Thelpers.rounds [ [ (1, props 2); (2, props 3) ] ] in
  Alcotest.(check int) "2*3 rounds" 6 (List.length rounds);
  let first_two = Sutil.Combi.take 2 rounds in
  (* group 1's property changes between round 1 and 2; group 2's does not *)
  match first_two with
  | [ a; b ] ->
      Alcotest.(check bool) "g1 varies" true
        (List.assoc 1 a <> List.assoc 1 b);
      Alcotest.(check bool) "g2 fixed" true (List.assoc 2 a = List.assoc 2 b)
  | _ -> Alcotest.fail "expected two rounds"

let test_paper_64_to_15 () =
  (* Section VIII-A: two groups with 8 properties each *)
  let members = [ [ (5, props 8) ]; [ (6, props 8) ] ] in
  let dependent = [ [ (5, props 8); (6, props 8) ] ] in
  Alcotest.(check int) "64 without independence" 64
    (Cse.Rounds.naive_total dependent);
  Alcotest.(check int) "15 with independence" 15
    (Cse.Rounds.sequential_total members);
  let rounds = Thelpers.rounds members in
  Alcotest.(check int) "search probes 15" 15 (List.length rounds)

let test_best_feedback () =
  (* the second class explores around the best assignment of the first *)
  let p5 = props 4 and p6 = props 3 in
  (* make property 2 of group 5 the cheapest *)
  let cost_of a =
    if Reqprops.equal (List.assoc 5 a) (List.nth p5 2) then 1.0 else 10.0
  in
  let rounds = Thelpers.rounds ~cost_of [ [ (5, p5) ]; [ (6, p6) ] ] in
  Alcotest.(check int) "4 + 2 rounds" 6 (List.length rounds);
  (* the final rounds (class of group 6) all pin group 5 to its best *)
  let tail = Sutil.Combi.drop 4 rounds in
  List.iter
    (fun a ->
      Alcotest.(check bool) "best of class 1 frozen" true
        (Reqprops.equal (List.assoc 5 a) (List.nth p5 2)))
    tail

let test_every_round_is_complete () =
  (* every assignment mentions every shared group exactly once *)
  let rounds =
    Thelpers.rounds [ [ (1, props 2) ]; [ (2, props 2); (3, props 2) ] ]
  in
  List.iter
    (fun a ->
      Alcotest.(check (list int)) "all groups covered" [ 1; 2; 3 ]
        (List.sort Int.compare (List.map fst a)))
    rounds;
  (* 2 + (4 - 1) = 5 rounds *)
  Alcotest.(check int) "round count" 5 (List.length rounds)

let test_no_duplicate_assignments () =
  let rounds =
    Thelpers.rounds [ [ (1, props 3) ]; [ (2, props 3) ]; [ (3, props 2) ] ]
  in
  let canon a = List.sort compare (List.map (fun (g, p) -> (g, Reqprops.to_key p)) a) in
  let cs = List.map canon rounds in
  Alcotest.(check int) "all distinct" (List.length cs)
    (List.length (List.sort_uniq compare cs))

let test_empty_and_degenerate () =
  let count classes = List.length (Thelpers.rounds classes) in
  Alcotest.(check int) "empty" 0 (count []);
  Alcotest.(check int) "group without properties dropped" 0
    (count [ [ (1, []) ] ]);
  Alcotest.(check int) "single round" 1 (count [ [ (1, props 1) ] ])

let test_saturating_totals () =
  (* 17 groups x 14 properties each: the naive total saturates instead of
     overflowing *)
  let cls = [ List.init 17 (fun i -> (i, props 14)) ] in
  Alcotest.(check bool) "saturates positive" true (Cse.Rounds.naive_total cls > 0);
  let indep = List.init 17 (fun i -> [ (i, props 14) ]) in
  Alcotest.(check int) "sequential is linear" (14 + (16 * 13))
    (Cse.Rounds.sequential_total indep)

let test_lazy_generation_of_huge_class () =
  (* a dependent class with a 14^10 product must still yield its first
     rounds instantly *)
  let rounds =
    Thelpers.rounds ~limit:20 [ List.init 10 (fun i -> (i, props 14)) ]
  in
  Alcotest.(check int) "probed 20" 20 (List.length rounds);
  List.iter
    (fun a -> Alcotest.(check int) "complete assignment" 10 (List.length a))
    rounds

let test_exhausted_stops_probes () =
  (* 3 + (3 - 1) = 5 rounds; a budget out after n probes leaves n *)
  let classes = [ [ (1, props 3) ]; [ (2, props 3) ] ] in
  for n = 0 to 6 do
    Alcotest.(check int)
      (Printf.sprintf "exhausted after %d" n)
      (min n 5)
      (List.length (Thelpers.rounds ~limit:n classes))
  done

(* Two classes of three property sets and an incumbent of 45.  Class 1
   (not last) scores 50, an aborted round, then 60; class 2 (last) skips
   its all-initial round and scores 30, then 45. *)
let test_bound_policy () =
  let p1 = props 3 and p2 = props 3 in
  let costs = [| 50.0; infinity; 60.0; 30.0; 45.0 |] in
  let probed = ref [] in
  Cse.Rounds.search
    [ [ (1, p1) ]; [ (2, p2) ] ]
    ~incumbent:45.0
    ~exhausted:(fun () -> false)
    ~probe:(fun a ~bound ->
      probed := (a, bound) :: !probed;
      costs.(List.length !probed - 1));
  let probed = List.rev !probed in
  let slack b = b *. (1.0 +. 1e-6) in
  Alcotest.(check (list (float 0.0)))
    "bounds: class 1 by its own best, class 2 by the global best"
    [ infinity; slack 50.0; slack 50.0; slack 45.0; slack 30.0 ]
    (List.map snd probed);
  (* class 2 explores around class 1's best, never its aborted round *)
  List.iteri
    (fun i (a, _) ->
      if i >= 3 then
        Alcotest.(check bool) "class 1 frozen at its best" true
          (Reqprops.equal (List.assoc 1 a) (List.nth p1 0)))
    probed

let () =
  Alcotest.run "rounds"
    [
      ( "generation",
        [
          Alcotest.test_case "single group" `Quick test_single_group;
          Alcotest.test_case "product order" `Quick test_product_order_first_varies_fastest;
          Alcotest.test_case "paper 64->15" `Quick test_paper_64_to_15;
          Alcotest.test_case "best feedback" `Quick test_best_feedback;
          Alcotest.test_case "complete assignments" `Quick test_every_round_is_complete;
          Alcotest.test_case "no duplicates" `Quick test_no_duplicate_assignments;
          Alcotest.test_case "degenerate inputs" `Quick test_empty_and_degenerate;
          Alcotest.test_case "saturating totals" `Quick test_saturating_totals;
          Alcotest.test_case "lazy huge class" `Quick test_lazy_generation_of_huge_class;
          Alcotest.test_case "exhausted stops probes" `Quick
            test_exhausted_stops_probes;
          Alcotest.test_case "bound policy" `Quick test_bound_policy;
        ] );
    ]
