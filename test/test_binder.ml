(* Binder tests: DAG shapes, sharing, name resolution, joins, AVG
   decomposition, HAVING, error reporting. *)

let node_ops dag =
  let live = Slogical.Dag.reachable dag in
  Array.to_list
    (Array.mapi
       (fun i (n : Slogical.Dag.node) ->
         if live.(i) then Some (Slogical.Logop.short_name n.Slogical.Dag.op)
         else None)
       dag.Slogical.Dag.nodes)
  |> List.filter_map Fun.id
  |> List.sort String.compare

let test_s1_shape () =
  let dag = Thelpers.bind Sworkload.Paper_scripts.s1 in
  Alcotest.(check int) "7 operators" 7 (Slogical.Dag.size dag);
  Alcotest.(check (list string))
    "operator kinds"
    [ "Extract"; "GB"; "GB"; "GB"; "Output"; "Output"; "Sequence" ]
    (node_ops dag);
  (* the first GB is explicitly shared: two distinct parents *)
  let gb1 =
    Array.to_list dag.Slogical.Dag.nodes
    |> List.find (fun (n : Slogical.Dag.node) ->
           match n.Slogical.Dag.op with
           | Slogical.Logop.Group_by { keys; _ } -> keys = [ "A"; "B"; "C" ]
           | _ -> false)
  in
  let parents =
    Array.to_list dag.Slogical.Dag.nodes
    |> List.filter (fun (n : Slogical.Dag.node) ->
           List.mem gb1.Slogical.Dag.id n.Slogical.Dag.children)
  in
  Alcotest.(check int) "shared GB has two parents" 2 (List.length parents)

let test_path_normalization () =
  Alcotest.(check string) "windows path" "test.log"
    (Slogical.Binder.normalize_path {|...\test.log|});
  Alcotest.(check string) "unix path" "x.log"
    (Slogical.Binder.normalize_path "/a/b/x.log");
  Alcotest.(check string) "bare name" "f" (Slogical.Binder.normalize_path "f")

let test_schema_derivation () =
  let dag = Thelpers.bind Sworkload.Paper_scripts.s1 in
  let root = Slogical.Dag.root dag in
  (match root.Slogical.Dag.op with
  | Slogical.Logop.Sequence -> ()
  | _ -> Alcotest.fail "root must be a Sequence");
  let out1 = Slogical.Dag.node dag (List.hd root.Slogical.Dag.children) in
  let gb = Slogical.Dag.node dag (List.hd out1.Slogical.Dag.children) in
  Alcotest.(check (list string)) "R1 schema" [ "A"; "B"; "S1" ]
    (Relalg.Schema.names gb.Slogical.Dag.schema)

let test_agg_alias_direct () =
  (* "Sum(S) AS S1" should name the aggregate output S1 directly, with no
     extra projection *)
  let dag = Thelpers.bind Sworkload.Paper_scripts.s1 in
  Alcotest.(check int) "no projects in S1" 0
    (List.length
       (List.filter (String.equal "Project") (node_ops dag)))

let test_join_binding () =
  let dag = Thelpers.bind Sworkload.Paper_scripts.s4 in
  let ops = node_ops dag in
  Alcotest.(check int) "one join" 1
    (List.length (List.filter (String.equal "Join") ops));
  (* multi-source SELECT introduces alias-qualifying renames *)
  Alcotest.(check bool) "rename projections present" true
    (List.length (List.filter (String.equal "Project") ops) >= 2)

let test_join_pairs () =
  let dag = Thelpers.bind Sworkload.Paper_scripts.s4 in
  let join =
    Array.to_list dag.Slogical.Dag.nodes
    |> List.find_map (fun (n : Slogical.Dag.node) ->
           match n.Slogical.Dag.op with
           | Slogical.Logop.Join { pairs; residual; _ } -> Some (pairs, residual)
           | _ -> None)
  in
  match join with
  | Some ([ (a, b) ], None) ->
      Alcotest.(check string) "left" "R1.B" a;
      Alcotest.(check string) "right" "R2.B" b
  | _ -> Alcotest.fail "expected a single equi pair with no residual"

let test_avg_decomposition () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "t.log" USING X;
      Q = SELECT A, Avg(D) AS M FROM R0 GROUP BY A;
      OUTPUT Q TO "o";|}
  in
  let catalog = Thelpers.default_catalog () in
  ignore
    (Relalg.Catalog.ensure catalog ~path:"t.log"
       ~schema:
         (List.map
            (fun c -> Relalg.Schema.column c Relalg.Schema.Tint)
            [ "A"; "B"; "C"; "D" ]));
  let dag = Thelpers.bind ~catalog s in
  let gb =
    Array.to_list dag.Slogical.Dag.nodes
    |> List.find_map (fun (n : Slogical.Dag.node) ->
           match n.Slogical.Dag.op with
           | Slogical.Logop.Group_by { aggs; _ } -> Some aggs
           | _ -> None)
  in
  match gb with
  | Some aggs ->
      Alcotest.(check int) "avg becomes two aggregates" 2 (List.length aggs);
      let funcs = List.map (fun a -> a.Relalg.Agg.func) aggs in
      Alcotest.(check bool) "sum and count" true
        (List.mem Relalg.Agg.Sum funcs && List.mem Relalg.Agg.Count funcs)
  | None -> Alcotest.fail "no group-by"

let test_having () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT A, Sum(D) AS S FROM R0 GROUP BY A HAVING S > 10;
      OUTPUT Q TO "o";|}
  in
  let dag = Thelpers.bind s in
  Alcotest.(check bool) "having becomes a filter over the group-by" true
    (List.mem "Filter" (node_ops dag))

let test_where_single_source () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT A,B FROM R0 WHERE A > 3 AND B = 2;
      OUTPUT Q TO "o";|}
  in
  let dag = Thelpers.bind s in
  let ops = node_ops dag in
  Alcotest.(check bool) "filter present" true (List.mem "Filter" ops);
  Alcotest.(check bool) "project present" true (List.mem "Project" ops)

let test_union_all_binding () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      R1 = SELECT A,B FROM R0 WHERE A > 1;
      R2 = SELECT A,B FROM R0 WHERE A < 1;
      U = R1 UNION ALL R2;
      OUTPUT U TO "o";|}
  in
  let dag = Thelpers.bind s in
  Alcotest.(check bool) "union bound" true (List.mem "UnionAll" (node_ops dag))

let test_group_by_expression_key () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT A % 10 AS Bucket, Sum(D) AS S FROM R0 GROUP BY A % 10;
      OUTPUT Q TO "o";|}
  in
  let dag = Thelpers.bind s in
  (* computed key gets a pre-projection *)
  Alcotest.(check bool) "pre-projection" true (List.mem "Project" (node_ops dag))

let expect_binder_error s =
  match Thelpers.bind s with
  | exception Slogical.Binder.Error _ -> ()
  | _ -> Alcotest.failf "expected binder error for %s" s

let test_errors () =
  (* unknown relation *)
  expect_binder_error {|OUTPUT Nope TO "o";|};
  (* unknown column *)
  expect_binder_error
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT Z FROM R0; OUTPUT Q TO "o";|};
  (* ambiguous column in a join *)
  expect_binder_error
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT B FROM R0 AS L, R0 AS R WHERE L.A = R.A; OUTPUT Q TO "o";|};
  (* no outputs *)
  expect_binder_error {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;|};
  (* cross join without predicate *)
  expect_binder_error
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X;
      Q = SELECT L.A FROM R0 AS L, R0 AS R; OUTPUT Q TO "o";|};
  (* unknown file column *)
  expect_binder_error
    {|R0 = EXTRACT A,Z9 FROM "test.log" USING X; OUTPUT R0 TO "o";|}

let test_single_output_root () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING X; OUTPUT R0 TO "o";|}
  in
  let dag = Thelpers.bind s in
  match (Slogical.Dag.root dag).Slogical.Dag.op with
  | Slogical.Logop.Output _ -> ()
  | _ -> Alcotest.fail "single-output script should not add a Sequence"

let test_fold_topological () =
  let dag = Thelpers.bind Sworkload.Paper_scripts.s1 in
  let order = Slogical.Dag.fold_topological dag (fun acc n -> n.Slogical.Dag.id :: acc) [] in
  let order = List.rev order in
  (* every node appears after its children *)
  List.iteri
    (fun i id ->
      let n = Slogical.Dag.node dag id in
      List.iter
        (fun c ->
          let pos_c =
            List.mapi (fun j x -> (j, x)) order
            |> List.find (fun (_, x) -> x = c)
            |> fst
          in
          if pos_c >= i then Alcotest.fail "not topological")
        n.Slogical.Dag.children)
    order

let () =
  Alcotest.run "binder"
    [
      ( "shapes",
        [
          Alcotest.test_case "S1 DAG" `Quick test_s1_shape;
          Alcotest.test_case "path normalization" `Quick test_path_normalization;
          Alcotest.test_case "schema derivation" `Quick test_schema_derivation;
          Alcotest.test_case "agg alias" `Quick test_agg_alias_direct;
          Alcotest.test_case "join binding" `Quick test_join_binding;
          Alcotest.test_case "join pairs" `Quick test_join_pairs;
          Alcotest.test_case "single output root" `Quick test_single_output_root;
          Alcotest.test_case "topological fold" `Quick test_fold_topological;
        ] );
      ( "features",
        [
          Alcotest.test_case "avg decomposition" `Quick test_avg_decomposition;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "where" `Quick test_where_single_source;
          Alcotest.test_case "union all" `Quick test_union_all_binding;
          Alcotest.test_case "computed group key" `Quick test_group_by_expression_key;
        ] );
      ("errors", [ Alcotest.test_case "reporting" `Quick test_errors ]);
    ]
