(* Section VIII-A: independent shared-group detection. *)

let prepare script =
  let memo = Thelpers.memo_of script in
  let shared = Cse.Spool.identify memo in
  let si = Cse.Shared_info.compute memo in
  (memo, List.map (fun (s : Cse.Spool.shared) -> s.Cse.Spool.spool) shared, si)

let test_independent_pair () =
  (* Figure 5 shape: two shared groups with disjoint consuming paths under
     the root LCA *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.independent_pair in
  let classes =
    Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root shared
  in
  Alcotest.(check int) "two classes" 2 (List.length classes);
  List.iter
    (fun cls -> Alcotest.(check int) "singleton classes" 1 (List.length cls))
    classes

let test_s4_dependent () =
  (* S4's three shared groups are non-independent: R sits below both R1 and
     R2, and the join consumes both R1 and R2 *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.s4 in
  Alcotest.(check int) "three shared" 3 (List.length shared);
  let classes =
    Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root shared
  in
  Alcotest.(check int) "one dependent class" 1 (List.length classes);
  Alcotest.(check int) "class holds all three" 3
    (List.length (List.hd classes))

let test_class_partition_properties () =
  (* classes form a partition of the input *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.independent_pair in
  let classes =
    Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root shared
  in
  let flat = List.concat classes in
  Alcotest.(check (list int)) "partition" (List.sort Int.compare shared)
    (List.sort Int.compare flat)

let test_classes_follow_input_order () =
  (* classes come in the order of their first member, members in input
     order: the order phase 2's group ranking hands in *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.independent_pair in
  let classes = Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root in
  Alcotest.(check (list (list int)))
    "reversed input, reversed classes"
    (List.rev (classes shared))
    (classes (List.rev shared));
  let memo, shared, si = prepare Sworkload.Paper_scripts.s4 in
  let classes = Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root in
  Alcotest.(check (list (list int))) "S4 members in input order" [ shared ]
    (classes shared);
  Alcotest.(check (list (list int))) "S4 members, reversed input"
    [ List.rev shared ]
    (classes (List.rev shared))

let test_ls1_classes () =
  (* LS1's four shared groups live in four separate modules: all
     independent *)
  let script, catalog = Thelpers.builtin "LS1" in
  let memo = Thelpers.memo_of ~catalog script in
  let shared = Cse.Spool.identify memo in
  let si = Cse.Shared_info.compute memo in
  let ids = List.map (fun (s : Cse.Spool.shared) -> s.Cse.Spool.spool) shared in
  let classes = Cse.Independent.classes si memo ~l:memo.Smemo.Memo.root ids in
  Alcotest.(check int) "four singleton classes" 4 (List.length classes)

(* --- VIII-B ranking ------------------------------------------------------ *)

let test_ranking_by_savings () =
  (* more consumers and more data => higher savings => earlier *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.s2 in
  ignore shared;
  (* single shared group: ranking is trivially stable *)
  let order = Cse.Rank.order Scost.Cluster.default memo si shared in
  Alcotest.(check (list int)) "stable" shared order

let test_ranking_savings_formula () =
  let memo, shared, si = prepare Sworkload.Paper_scripts.s2 in
  let s = List.hd shared in
  let cost = Cse.Rank.repartition_cost Scost.Cluster.default memo s in
  let savings = Cse.Rank.savings Scost.Cluster.default memo si s in
  (* S2: three consumers => savings = 2 * repartition cost *)
  Alcotest.(check (float 1e-6)) "(n-1) * repart" (2.0 *. cost) savings

let test_ranking_orders_big_first () =
  let script, catalog = Thelpers.builtin "LS2" in
  let memo = Thelpers.memo_of ~catalog script in
  let shared = Cse.Spool.identify memo in
  let si = Cse.Shared_info.compute memo in
  let ids = List.map (fun (s : Cse.Spool.shared) -> s.Cse.Spool.spool) shared in
  let order = Cse.Rank.order Scost.Cluster.default memo si ids in
  let savings = List.map (Cse.Rank.savings Scost.Cluster.default memo si) order in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "savings non-increasing" true (non_increasing savings)

let () =
  Alcotest.run "independent"
    [
      ( "classes (VIII-A)",
        [
          Alcotest.test_case "independent pair" `Quick test_independent_pair;
          Alcotest.test_case "S4 dependent" `Quick test_s4_dependent;
          Alcotest.test_case "partition" `Quick test_class_partition_properties;
          Alcotest.test_case "input order" `Quick test_classes_follow_input_order;
          Alcotest.test_case "LS1 modules" `Quick test_ls1_classes;
        ] );
      ( "ranking (VIII-B)",
        [
          Alcotest.test_case "stable" `Quick test_ranking_by_savings;
          Alcotest.test_case "savings formula" `Quick test_ranking_savings_formula;
          Alcotest.test_case "big first" `Quick test_ranking_orders_big_first;
        ] );
    ]
