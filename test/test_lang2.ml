(* Tests for the extended language surface: DISTINCT, ORDER BY on OUTPUT,
   grand-total aggregation, and their whole-stack behaviour (plan shapes,
   enforcement via Gather, execution correctness). *)

let catalog () = Relalg.Catalog.default ()

(* --- parsing ------------------------------------------------------------ *)

let test_parse_distinct () =
  let s = {|Q = SELECT DISTINCT A, B FROM R; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { distinct = true; items; _ }); _ ] ->
      Alcotest.(check int) "two items" 2 (List.length items)
  | _ -> Alcotest.fail "distinct select shape"

let test_parse_order_by () =
  let s = {|OUTPUT R TO "o" ORDER BY A DESC, B;|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Output { order = [ a; b ]; _ } ] ->
      Alcotest.(check bool) "A desc" true a.Slang.Ast.descending;
      Alcotest.(check bool) "B asc" false b.Slang.Ast.descending
  | _ -> Alcotest.fail "order by shape"

let test_roundtrip_new_syntax () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
      Q = SELECT DISTINCT A,B FROM R0;
      OUTPUT Q TO "o" ORDER BY A DESC, B;|}
  in
  let ast = Slang.Parser.parse_script s in
  let ast2 = Slang.Parser.parse_script (Slang.Ast.to_string ast) in
  Alcotest.(check bool) "roundtrip" true (ast = ast2)

(* --- binding ------------------------------------------------------------ *)

let test_distinct_becomes_group_by () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
      Q = SELECT DISTINCT B FROM R0;
      OUTPUT Q TO "o";|}
  in
  let dag = Thelpers.bind ~catalog:(catalog ()) s in
  let found =
    Array.exists
      (fun (n : Slogical.Dag.node) ->
        match n.Slogical.Dag.op with
        | Slogical.Logop.Group_by { keys = [ "B" ]; aggs = [] } -> true
        | _ -> false)
      dag.Slogical.Dag.nodes
  in
  Alcotest.(check bool) "aggregate-free group-by" true found

let test_order_by_bound () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
      OUTPUT R0 TO "o" ORDER BY B DESC;|}
  in
  let dag = Thelpers.bind ~catalog:(catalog ()) s in
  match (Slogical.Dag.root dag).Slogical.Dag.op with
  | Slogical.Logop.Output { order = [ ("B", true) ]; _ } -> ()
  | _ -> Alcotest.fail "order recorded on the output operator"

let test_order_by_unknown_column_rejected () =
  let s =
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
      OUTPUT R0 TO "o" ORDER BY Nope;|}
  in
  match Thelpers.bind ~catalog:(catalog ()) s with
  | exception Slogical.Binder.Error _ -> ()
  | _ -> Alcotest.fail "expected a binder error"

(* --- optimization + execution ------------------------------------------- *)

let combined_script =
  {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
    R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B;
    T = SELECT Sum(S) AS Total, Count(*) AS Groups FROM R;
    U = SELECT DISTINCT B FROM R0;
    OUTPUT R TO "r.out" ORDER BY S DESC, A;
    OUTPUT T TO "t.out";
    OUTPUT U TO "u.out" ORDER BY B;|}

let report = lazy (Cse.Pipeline.run ~catalog:(catalog ()) combined_script)

let test_plans_valid () =
  let r = Lazy.force report in
  Thelpers.assert_valid_plan "cse" r.Cse.Pipeline.cse_plan;
  Thelpers.assert_valid_plan "conventional" r.Cse.Pipeline.conventional_plan

let test_order_by_uses_gather () =
  let r = Lazy.force report in
  Alcotest.(check bool) "gather present" true
    (Thelpers.count_op "Gather" r.Cse.Pipeline.cse_plan >= 2)

let test_grand_total_single_row () =
  let r = Lazy.force report in
  let catalog = catalog () in
  let engine = Sexec.Engine.create ~machines:11 catalog in
  let outputs = Sexec.Engine.run engine r.Cse.Pipeline.cse_plan in
  match List.assoc_opt "t.out" outputs with
  | Some t -> Alcotest.(check int) "one row" 1 (Relalg.Table.cardinality t)
  | None -> Alcotest.fail "t.out missing"

let test_execution_and_ordering () =
  let r = Lazy.force report in
  let v =
    Sexec.Validate.check ~machines:11 (catalog ()) r.Cse.Pipeline.dag
      r.Cse.Pipeline.cse_plan
  in
  if not v.Sexec.Validate.ok then
    Alcotest.failf "mismatch: %s" (String.concat "; " v.Sexec.Validate.mismatches)

let test_ordering_check_catches_violations () =
  (* hand-build a plan that ignores its ORDER BY and confirm Validate
     flags it: take the CSE plan and strip all sorts/gathers above r.out *)
  let r = Lazy.force report in
  let rec strip (p : Sphys.Plan.t) =
    match p.Sphys.Plan.op with
    | Sphys.Physop.P_sort _ | Sphys.Physop.P_gather ->
        strip (List.hd p.Sphys.Plan.children)
    | _ -> p
  in
  let rec rewrite (p : Sphys.Plan.t) =
    match p.Sphys.Plan.op with
    | Sphys.Physop.P_output { file } when file = "r.out" ->
        {
          p with
          Sphys.Plan.children = [ strip (List.hd p.Sphys.Plan.children) ];
        }
    | _ -> { p with Sphys.Plan.children = List.map rewrite p.Sphys.Plan.children }
  in
  let sabotaged = rewrite r.Cse.Pipeline.cse_plan in
  let v =
    Sexec.Validate.check ~machines:11 (catalog ()) r.Cse.Pipeline.dag sabotaged
  in
  Alcotest.(check bool) "violation detected" true
    (List.exists
       (fun m -> String.starts_with ~prefix:"output r.out violates" m)
       v.Sexec.Validate.mismatches)

let test_distinct_semantics () =
  (* DISTINCT output equals the reference group-by *)
  let r = Lazy.force report in
  let catalog = catalog () in
  let engine = Sexec.Engine.create ~machines:5 catalog in
  let outputs = Sexec.Engine.run engine r.Cse.Pipeline.cse_plan in
  match List.assoc_opt "u.out" outputs with
  | Some t ->
      let rows = List.map (fun r -> r.(0)) t.Relalg.Table.rows in
      Alcotest.(check int) "no duplicates" (List.length rows)
        (List.length (List.sort_uniq Relalg.Value.compare rows))
  | None -> Alcotest.fail "u.out missing"

let test_sharing_still_works () =
  (* R0 is consumed by R and U; R by T and r.out: both spooled *)
  let r = Lazy.force report in
  Alcotest.(check int) "two shared groups" 2 (List.length r.Cse.Pipeline.shared);
  let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
  Alcotest.(check int) "two materializations" 2 distinct;
  Alcotest.(check bool) "each consumed more than once" true (refs >= 4)

(* --- LEFT JOIN ----------------------------------------------------------- *)

let left_join_script =
  {|Users = EXTRACT A,B,C,D FROM "test.log" USING L;
    Purch = EXTRACT A,B,C,D FROM "test2.log" USING L;
    U = SELECT A, Sum(D) AS Visits FROM Users GROUP BY A;
    P = SELECT A, Sum(D) AS Spend FROM Purch WHERE B > 500 GROUP BY A;
    J = SELECT L.A, Visits, Spend FROM U AS L LEFT JOIN P AS R ON L.A = R.A;
    OUTPUT J TO "j.out";
    OUTPUT U TO "u.out";|}

let test_left_join_parses () =
  match Slang.Parser.parse_script left_join_script with
  | stmts ->
      let joins =
        List.concat_map
          (function
            | Slang.Ast.Assign (_, Slang.Ast.Select { joins; _ }) -> joins
            | _ -> [])
          stmts
      in
      (match joins with
      | [ (_, _, true) ] -> ()
      | _ -> Alcotest.fail "expected one LEFT JOIN")

let test_left_join_bound () =
  let dag = Thelpers.bind ~catalog:(catalog ()) left_join_script in
  let found =
    Array.exists
      (fun (n : Slogical.Dag.node) ->
        match n.Slogical.Dag.op with
        | Slogical.Logop.Join { kind = Slogical.Logop.Left_outer; _ } -> true
        | _ -> false)
      dag.Slogical.Dag.nodes
  in
  Alcotest.(check bool) "left-outer join bound" true found

let test_left_join_execution () =
  let catalog = catalog () in
  let r = Cse.Pipeline.run ~catalog left_join_script in
  Thelpers.assert_valid_plan "left join" r.Cse.Pipeline.cse_plan;
  let v =
    Sexec.Validate.check ~verify_props:true ~machines:7 catalog
      r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan
  in
  if not v.Sexec.Validate.ok then
    Alcotest.failf "mismatch: %s" (String.concat "; " v.Sexec.Validate.mismatches);
  (* the left side (U) must survive in full: |J| >= |U|, with null padding
     for users without purchases *)
  let engine = Sexec.Engine.create ~machines:7 catalog in
  let outputs = Sexec.Engine.run engine r.Cse.Pipeline.cse_plan in
  match (List.assoc_opt "j.out" outputs, List.assoc_opt "u.out" outputs) with
  | Some j, Some u ->
      Alcotest.(check bool) "every user kept" true
        (Relalg.Table.cardinality j >= Relalg.Table.cardinality u)
  | _ -> Alcotest.fail "outputs missing"

let test_left_join_keeps_sharing () =
  let r = Cse.Pipeline.run ~catalog:(catalog ()) left_join_script in
  (* U is consumed by the join and by an output: it must be spooled once *)
  let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
  Alcotest.(check int) "one materialization" 1 distinct;
  Alcotest.(check int) "two references" 2 refs

let test_left_join_nulls_aggregate () =
  (* Sum over a null-padded column treats NULL as absent *)
  let t =
    Relalg.Table.make
      [ Relalg.Schema.column "K" Relalg.Schema.Tint;
        Relalg.Schema.column "V" Relalg.Schema.Tint ]
      [ [| Relalg.Value.Int 1; Relalg.Value.Null |];
        [| Relalg.Value.Int 1; Relalg.Value.Int 5 |] ]
  in
  let g =
    Relalg.Table.group_by t ~keys:[ "K" ]
      ~aggs:[ Relalg.Agg.make Relalg.Agg.Sum (Relalg.Expr.Col "V") "S" ]
  in
  match g.Relalg.Table.rows with
  | [ [| _; s |] ] -> Alcotest.check Thelpers.value_t "sum" (Relalg.Value.Int 5) s
  | _ -> Alcotest.fail "one group expected"

let test_left_join_requires_equality () =
  let bad =
    {|Users = EXTRACT A,B,C,D FROM "test.log" USING L;
      Purch = EXTRACT A,B,C,D FROM "test2.log" USING L;
      J = SELECT L.A FROM Users AS L LEFT JOIN Purch AS R ON L.A > R.A;
      OUTPUT J TO "o";|}
  in
  match Thelpers.bind ~catalog:(catalog ()) bad with
  | exception Slogical.Binder.Error _ -> ()
  | _ -> Alcotest.fail "expected binder error"

let test_serial_req_weight_path () =
  (* ORDER BY on a 1-machine cluster still works *)
  let cluster = Scost.Cluster.with_machines 1 Scost.Cluster.default in
  let r = Cse.Pipeline.run ~cluster ~catalog:(catalog ()) combined_script in
  Thelpers.assert_valid_plan "serial cluster" r.Cse.Pipeline.cse_plan;
  let v =
    Sexec.Validate.check ~machines:1 (catalog ()) r.Cse.Pipeline.dag
      r.Cse.Pipeline.cse_plan
  in
  Alcotest.(check bool) "executes" true v.Sexec.Validate.ok

let () =
  Alcotest.run "lang2"
    [
      ( "parsing",
        [
          Alcotest.test_case "distinct" `Quick test_parse_distinct;
          Alcotest.test_case "order by" `Quick test_parse_order_by;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_new_syntax;
        ] );
      ( "binding",
        [
          Alcotest.test_case "distinct => group-by" `Quick
            test_distinct_becomes_group_by;
          Alcotest.test_case "order recorded" `Quick test_order_by_bound;
          Alcotest.test_case "unknown column" `Quick
            test_order_by_unknown_column_rejected;
        ] );
      ( "whole stack",
        [
          Alcotest.test_case "plans valid" `Quick test_plans_valid;
          Alcotest.test_case "gather for order by" `Quick test_order_by_uses_gather;
          Alcotest.test_case "grand total" `Quick test_grand_total_single_row;
          Alcotest.test_case "execution + ordering" `Quick test_execution_and_ordering;
          Alcotest.test_case "ordering violations caught" `Quick
            test_ordering_check_catches_violations;
          Alcotest.test_case "distinct semantics" `Quick test_distinct_semantics;
          Alcotest.test_case "sharing preserved" `Quick test_sharing_still_works;
          Alcotest.test_case "serial cluster" `Quick test_serial_req_weight_path;
        ] );
      ( "left join",
        [
          Alcotest.test_case "parses" `Quick test_left_join_parses;
          Alcotest.test_case "bound" `Quick test_left_join_bound;
          Alcotest.test_case "execution" `Quick test_left_join_execution;
          Alcotest.test_case "sharing" `Quick test_left_join_keeps_sharing;
          Alcotest.test_case "null aggregation" `Quick test_left_join_nulls_aggregate;
          Alcotest.test_case "needs equality" `Quick test_left_join_requires_equality;
        ] );
    ]
