open Relalg

(* Tests for values, column sets, schemas, expressions, aggregates, tables
   and the catalog. *)

(* --- values ------------------------------------------------------------ *)

let test_value_order () =
  let open Value in
  Alcotest.(check bool) "null smallest" true (compare Null (Int 0) < 0);
  Alcotest.(check int) "int eq" 0 (compare (Int 3) (Int 3));
  Alcotest.(check bool) "int/float mix" true (compare (Int 1) (Float 1.5) < 0);
  Alcotest.(check int) "int=float" 0 (compare (Int 2) (Float 2.0));
  Alcotest.(check bool) "num < str" true (compare (Int 9) (Str "a") < 0);
  Alcotest.(check bool) "str order" true (compare (Str "a") (Str "b") < 0)

let test_value_arith () =
  let open Value in
  Alcotest.check Thelpers.value_t "add" (Int 5) (add (Int 2) (Int 3));
  Alcotest.check Thelpers.value_t "add null" (Int 2) (add Null (Int 2));
  Alcotest.check Thelpers.value_t "sub" (Int ~-1) (sub (Int 2) (Int 3));
  Alcotest.check Thelpers.value_t "mul" (Int 6) (mul (Int 2) (Int 3));
  Alcotest.check Thelpers.value_t "div0 is null" Null (div (Int 1) (Int 0));
  Alcotest.check Thelpers.value_t "mod" (Int 1) (modulo (Int 7) (Int 3));
  Alcotest.check Thelpers.value_t "min" (Int 2) (min (Int 2) (Int 3));
  Alcotest.check Thelpers.value_t "max" (Int 3) (max (Int 2) (Int 3));
  Alcotest.check Thelpers.value_t "string concat" (Str "ab")
    (add (Str "a") (Str "b"))

let test_value_truthy () =
  Alcotest.(check bool) "0 falsy" false (Value.is_truthy (Value.Int 0));
  Alcotest.(check bool) "1 truthy" true (Value.is_truthy (Value.Int 1));
  Alcotest.(check bool) "null falsy" false (Value.is_truthy Value.Null);
  Alcotest.(check bool) "empty string falsy" false
    (Value.is_truthy (Value.Str ""))

(* --- column sets -------------------------------------------------------- *)

let cs = Thelpers.colset

let test_colset_basics () =
  Alcotest.check Thelpers.colset_t "dedup + sort" (cs [ "A"; "B" ])
    (cs [ "B"; "A"; "B" ]);
  Alcotest.(check bool) "subset" true
    (Colset.subset (cs [ "B" ]) (cs [ "A"; "B"; "C" ]));
  Alcotest.(check bool) "not subset" false
    (Colset.subset (cs [ "D" ]) (cs [ "A"; "B" ]));
  Alcotest.check Thelpers.colset_t "inter" (cs [ "B" ])
    (Colset.inter (cs [ "A"; "B" ]) (cs [ "B"; "C" ]));
  Alcotest.check Thelpers.colset_t "diff" (cs [ "A" ])
    (Colset.diff (cs [ "A"; "B" ]) (cs [ "B"; "C" ]));
  Alcotest.(check int) "nonempty subsets of 3" 7
    (List.length (Colset.nonempty_subsets (cs [ "A"; "B"; "C" ])))

let small_colset_gen =
  QCheck.Gen.(
    map Colset.of_list
      (list_size (int_bound 5) (oneofl [ "A"; "B"; "C"; "D"; "E" ])))

let colset_arb = QCheck.make ~print:Colset.to_string small_colset_gen

let prop_union_comm =
  Thelpers.qtest "union commutative" (QCheck.pair colset_arb colset_arb)
    (fun (a, b) -> Colset.equal (Colset.union a b) (Colset.union b a))

let prop_subset_antisym =
  Thelpers.qtest "subset antisymmetric" (QCheck.pair colset_arb colset_arb)
    (fun (a, b) ->
      if Colset.subset a b && Colset.subset b a then Colset.equal a b else true)

let prop_inter_subset =
  Thelpers.qtest "inter is a lower bound" (QCheck.pair colset_arb colset_arb)
    (fun (a, b) ->
      let i = Colset.inter a b in
      Colset.subset i a && Colset.subset i b)

let prop_structural_equality =
  Thelpers.qtest "structural equality is set equality"
    (QCheck.pair colset_arb colset_arb)
    (fun (a, b) ->
      Colset.equal a b
      = (Colset.subset a b && Colset.subset b a))

(* --- schemas ------------------------------------------------------------ *)

let abc =
  [
    Schema.column "A" Schema.Tint;
    Schema.column "B" Schema.Tint;
    Schema.column "C" Schema.Tstr;
  ]

let test_schema () =
  Alcotest.(check (list string)) "names" [ "A"; "B"; "C" ] (Schema.names abc);
  Alcotest.(check int) "index" 1 (Schema.index "B" abc);
  Alcotest.(check bool) "mem" true (Schema.mem "C" abc);
  Alcotest.(check bool) "not mem" false (Schema.mem "Z" abc);
  Alcotest.check_raises "missing raises" Not_found (fun () ->
      ignore (Schema.index "Z" abc));
  Alcotest.(check (option int)) "index_opt" None (Schema.index_opt "Z" abc)

(* --- expressions -------------------------------------------------------- *)

let row = [| Value.Int 10; Value.Int 3; Value.Str "x" |]

let test_expr_eval () =
  let e = Expr.(Binop (Add, Col "A", Binop (Mul, Col "B", Lit (Value.Int 2)))) in
  Alcotest.check Thelpers.value_t "10+3*2" (Value.Int 16) (Expr.ceval row (Expr.compile abc e));
  let p = Expr.(Cmp (Gt, Col "A", Col "B")) in
  let holds e = Expr.ceval_pred row (Expr.compile abc e) in
  Alcotest.(check bool) "10 > 3" true (holds p);
  let q = Expr.(And (p, Cmp (Eq, Col "C", Lit (Value.Str "x")))) in
  Alcotest.(check bool) "and" true (holds q);
  Alcotest.(check bool) "not" false (holds (Expr.Not q))

let test_expr_columns () =
  let e = Expr.(And (Cmp (Eq, Col "A", Col "B"), Cmp (Lt, Col "C", Lit (Value.Int 1)))) in
  Alcotest.check Thelpers.colset_t "columns" (cs [ "A"; "B"; "C" ])
    (Expr.columns e)

let test_expr_rename () =
  let e = Expr.(Binop (Add, Col "A", Col "B")) in
  let r = Expr.rename (fun c -> "X_" ^ c) e in
  Alcotest.check Thelpers.colset_t "renamed" (cs [ "X_A"; "X_B" ])
    (Expr.columns r)

let test_equi_pairs () =
  let e =
    Expr.(
      And (Cmp (Eq, Col "a", Col "b"), Cmp (Eq, Col "c", Col "d")))
  in
  Alcotest.(check (option (list (pair string string))))
    "two pairs"
    (Some [ ("a", "b"); ("c", "d") ])
    (Expr.equi_pairs e);
  Alcotest.(check (option (list (pair string string))))
    "non-equi gives none" None
    (Expr.equi_pairs Expr.(Cmp (Lt, Col "a", Col "b")))

(* --- aggregates --------------------------------------------------------- *)

let test_agg_basic () =
  let a = Agg.make Agg.Sum (Expr.Col "A") "S" in
  let st = Agg.init () in
  List.iter
    (fun v -> Agg.step_value a st (Value.Int v))
    [ 1; 2; 3 ];
  Alcotest.check Thelpers.value_t "sum" (Value.Int 6) (Agg.finish a st)

let test_agg_count_min_max () =
  let run f =
    let a = Agg.make f (Expr.Col "A") "X" in
    let st = Agg.init () in
    List.iter
      (fun v -> Agg.step_value a st (Value.Int v))
      [ 5; 1; 9 ];
    Agg.finish a st
  in
  Alcotest.check Thelpers.value_t "count" (Value.Int 3) (run Agg.Count);
  Alcotest.check Thelpers.value_t "min" (Value.Int 1) (run Agg.Min);
  Alcotest.check Thelpers.value_t "max" (Value.Int 9) (run Agg.Max)

let test_agg_empty_sum () =
  let a = Agg.make Agg.Sum (Expr.Col "A") "S" in
  Alcotest.check Thelpers.value_t "empty sum is 0" (Value.Int 0)
    (Agg.finish a (Agg.init ()))

let test_agg_global_combinator () =
  (* local COUNT partials combine with SUM *)
  let c = Agg.make Agg.Count (Expr.Col "A") "N" in
  let g = Agg.global_combinator c in
  Alcotest.(check bool) "count combines as sum" true (g.Agg.func = Agg.Sum);
  Alcotest.(check string) "same output name" "N" g.Agg.output;
  let mn = Agg.global_combinator (Agg.make Agg.Min (Expr.Col "A") "M") in
  Alcotest.(check bool) "min combines as min" true (mn.Agg.func = Agg.Min)

(* two-stage aggregation equals one-stage on any split of the rows *)
let prop_two_stage_agg =
  Thelpers.qtest ~count:200 "local/global = single stage"
    QCheck.(list (list small_int))
    (fun partitions ->
      let schema = [ Schema.column "A" Schema.Tint ] in
      let mk vs = List.map (fun v -> [| Value.Int v |]) vs in
      let all = Table.make schema (mk (List.concat partitions)) in
      let agg = Agg.make Agg.Sum (Expr.Col "A") "S" in
      let single = Table.group_by all ~keys:[] ~aggs:[ agg ] in
      let locals =
        List.map
          (fun part ->
            Table.group_by (Table.make schema (mk part)) ~keys:[] ~aggs:[ agg ])
          partitions
      in
      let partials =
        Table.make (Schema.column "S" Schema.Tint :: [])
          (List.concat_map (fun t -> t.Table.rows) locals)
      in
      let final =
        Table.group_by partials ~keys:[] ~aggs:[ Agg.global_combinator agg ]
      in
      Table.same_contents single final)

(* --- tables ------------------------------------------------------------- *)

let t0 =
  Table.make abc
    [
      [| Value.Int 1; Value.Int 10; Value.Str "x" |];
      [| Value.Int 2; Value.Int 20; Value.Str "y" |];
      [| Value.Int 1; Value.Int 30; Value.Str "x" |];
    ]

let test_table_filter_project () =
  let f = Table.filter t0 Expr.(Cmp (Eq, Col "A", Lit (Value.Int 1))) in
  Alcotest.(check int) "filter rows" 2 (Table.cardinality f);
  let p = Table.project t0 [ (Expr.Col "B", "B2") ] in
  Alcotest.(check (list string)) "project schema" [ "B2" ]
    (Schema.names p.Table.schema)

let test_table_group_by () =
  let g =
    Table.group_by t0 ~keys:[ "A" ]
      ~aggs:[ Agg.make Agg.Sum (Expr.Col "B") "S" ]
  in
  Alcotest.(check int) "two groups" 2 (Table.cardinality g);
  let find a =
    List.find (fun r -> Value.equal r.(0) (Value.Int a)) g.Table.rows
  in
  Alcotest.check Thelpers.value_t "group 1" (Value.Int 40) (find 1).(1);
  Alcotest.check Thelpers.value_t "group 2" (Value.Int 20) (find 2).(1)

let test_table_join () =
  let other =
    Table.make
      [ Schema.column "K" Schema.Tint; Schema.column "V" Schema.Tint ]
      [ [| Value.Int 1; Value.Int 100 |]; [| Value.Int 3; Value.Int 300 |] ]
  in
  let j = Table.join t0 other Expr.(Cmp (Eq, Col "A", Col "K")) in
  Alcotest.(check int) "join rows" 2 (Table.cardinality j);
  Alcotest.(check int) "join arity" 5 (Schema.arity j.Table.schema)

let test_table_union_same_contents () =
  let u = Table.union_all t0 t0 in
  Alcotest.(check int) "union doubles" 6 (Table.cardinality u);
  Alcotest.(check bool) "same contents reflexive" true
    (Table.same_contents t0 t0);
  Alcotest.(check bool) "different cardinality differs" false
    (Table.same_contents t0 u)

let test_union_schema_mismatch () =
  let other = Table.make [ Schema.column "Z" Schema.Tint ] [] in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Table.union_all: schema mismatch") (fun () ->
      ignore (Table.union_all t0 other))

(* --- catalog ------------------------------------------------------------ *)

let test_catalog () =
  let c = Catalog.default () in
  match Catalog.find c "test.log" with
  | None -> Alcotest.fail "test.log missing"
  | Some stats ->
      Alcotest.(check int) "rows" 100_000_000 stats.Catalog.rows;
      Alcotest.(check bool) "ndv(D) large" true (Catalog.col_ndv stats "D" > 1000);
      Alcotest.(check int) "ndv(A)" 60 (Catalog.col_ndv stats "A")

let test_catalog_ensure () =
  let c = Catalog.create () in
  let schema = [ Schema.column "X" Schema.Tint ] in
  let s1 = Catalog.ensure c ~path:"f" ~schema in
  let s2 = Catalog.ensure c ~path:"f" ~schema in
  Alcotest.(check int) "idempotent" s1.Catalog.rows s2.Catalog.rows

let () =
  Alcotest.run "relalg"
    [
      ( "value",
        [
          Alcotest.test_case "order" `Quick test_value_order;
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "truthiness" `Quick test_value_truthy;
        ] );
      ( "colset",
        [
          Alcotest.test_case "basics" `Quick test_colset_basics;
          prop_union_comm;
          prop_subset_antisym;
          prop_inter_subset;
          prop_structural_equality;
        ] );
      ("schema", [ Alcotest.test_case "basics" `Quick test_schema ]);
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "columns" `Quick test_expr_columns;
          Alcotest.test_case "rename" `Quick test_expr_rename;
          Alcotest.test_case "equi pairs" `Quick test_equi_pairs;
        ] );
      ( "agg",
        [
          Alcotest.test_case "sum" `Quick test_agg_basic;
          Alcotest.test_case "count/min/max" `Quick test_agg_count_min_max;
          Alcotest.test_case "empty sum" `Quick test_agg_empty_sum;
          Alcotest.test_case "global combinator" `Quick test_agg_global_combinator;
          prop_two_stage_agg;
        ] );
      ( "table",
        [
          Alcotest.test_case "filter/project" `Quick test_table_filter_project;
          Alcotest.test_case "group by" `Quick test_table_group_by;
          Alcotest.test_case "join" `Quick test_table_join;
          Alcotest.test_case "union" `Quick test_table_union_same_contents;
          Alcotest.test_case "union mismatch" `Quick test_union_schema_mismatch;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "default stats" `Quick test_catalog;
          Alcotest.test_case "ensure" `Quick test_catalog_ensure;
        ] );
    ]
