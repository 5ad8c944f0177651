open Relalg

(* Cardinality-estimation tests. *)

let catalog = Catalog.default ()

let schema cols = List.map (fun c -> Schema.column c Schema.Tint) cols

let derive op sch children =
  Slogical.Stats.derive ~machines:25 op ~catalog ~schema:sch children

let extract_stats () =
  match Catalog.find catalog "test.log" with
  | Some s ->
      let schema = Catalog.file_schema s in
      derive
        (Slogical.Logop.Extract
           { file = "test.log"; extractor = "LogExtractor"; schema })
        schema []
  | None -> Alcotest.fail "catalog"

let col_ndv (s : Slogical.Stats.t) c = List.assoc c s.Slogical.Stats.ndvs

let test_extract () =
  let s = extract_stats () in
  Alcotest.(check (float 1.0)) "rows" 1e8 s.Slogical.Stats.rows;
  Alcotest.(check (float 0.01)) "ndv A" 60.0 (col_ndv s "A")

let test_group_by () =
  let s = extract_stats () in
  let out =
    derive
      (Slogical.Logop.Group_by { keys = [ "A"; "B" ]; aggs = [] })
      (schema [ "A"; "B" ]) [ s ]
  in
  (* 60 * 1000 under independence *)
  Alcotest.(check (float 1.0)) "rows = ndv(A,B)" 60_000.0 out.Slogical.Stats.rows

let test_group_by_capped () =
  let s = extract_stats () in
  let out =
    derive
      (Slogical.Logop.Group_by { keys = [ "A"; "B"; "C"; "D" ]; aggs = [] })
      (schema [ "A"; "B"; "C"; "D" ]) [ s ]
  in
  Alcotest.(check bool) "capped by input rows" true
    (out.Slogical.Stats.rows <= s.Slogical.Stats.rows)

let test_group_by_local () =
  let s = extract_stats () in
  let keys = [ "A"; "B"; "C" ] in
  let local =
    derive
      (Slogical.Logop.Group_by_local { keys; aggs = [] })
      (schema keys) [ s ]
  in
  let global =
    derive (Slogical.Logop.Group_by { keys; aggs = [] }) (schema keys) [ s ]
  in
  Alcotest.(check bool) "local keeps up to ndv*machines rows" true
    (local.Slogical.Stats.rows >= global.Slogical.Stats.rows);
  Alcotest.(check (float 1.0)) "ndv(keys)*machines"
    (Float.min s.Slogical.Stats.rows (60.0 *. 1000.0 *. 60.0 *. 25.0))
    local.Slogical.Stats.rows

let test_filter_selectivity () =
  let s = extract_stats () in
  let eq =
    derive
      (Slogical.Logop.Filter
         { pred = Expr.(Cmp (Eq, Col "A", Lit (Value.Int 1))) })
      (schema [ "A"; "B"; "C"; "D" ])
      [ s ]
  in
  Alcotest.(check (float 1.0)) "1/ndv(A)" (1e8 /. 60.0) eq.Slogical.Stats.rows;
  let range =
    derive
      (Slogical.Logop.Filter { pred = Expr.(Cmp (Lt, Col "A", Lit (Value.Int 1))) })
      (schema [ "A"; "B"; "C"; "D" ])
      [ s ]
  in
  Alcotest.(check (float 1.0)) "range 0.3" (0.3 *. 1e8) range.Slogical.Stats.rows

let test_join_containment () =
  let s = extract_stats () in
  let gb keys =
    derive (Slogical.Logop.Group_by { keys; aggs = [] }) (schema keys) [ s ]
  in
  let l = gb [ "A"; "B" ] and r = gb [ "B"; "C" ] in
  let out =
    derive
      (Slogical.Logop.Join
         { kind = Slogical.Logop.Inner; pairs = [ ("B", "B") ]; residual = None })
      (schema [ "A"; "B"; "B"; "C" ])
      [ l; r ]
  in
  let expected =
    l.Slogical.Stats.rows *. r.Slogical.Stats.rows
    /. Float.max (col_ndv l "B") (col_ndv r "B")
  in
  Alcotest.(check (float 1.0)) "containment" expected out.Slogical.Stats.rows

let test_union () =
  let s = extract_stats () in
  let out =
    derive Slogical.Logop.Union_all (schema [ "A"; "B"; "C"; "D" ]) [ s; s ]
  in
  Alcotest.(check (float 1.0)) "sum of rows" 2e8 out.Slogical.Stats.rows

let test_project_ndv_mapping () =
  let s = extract_stats () in
  let out =
    derive
      (Slogical.Logop.Project
         { items = [ (Expr.Col "B", "X"); (Expr.Lit (Value.Int 1), "One") ] })
      (schema [ "X"; "One" ])
      [ s ]
  in
  Alcotest.(check (float 0.01)) "renamed ndv" 1000.0
    (col_ndv out "X");
  Alcotest.(check (float 0.01)) "literal ndv" 1.0
    (col_ndv out "One")

let test_spool_passthrough () =
  let s = extract_stats () in
  let out = derive Slogical.Logop.Spool (schema [ "A"; "B"; "C"; "D" ]) [ s ] in
  Alcotest.(check (float 0.1)) "spool passes rows" s.Slogical.Stats.rows
    out.Slogical.Stats.rows

let test_memo_group_stats () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  (* group 1 is GB(A,B,C): ndv(A,B,C) = 60*1000*60 = 3.6e6 *)
  let g1 = Smemo.Memo.group memo 1 in
  Alcotest.(check (float 1.0)) "R cardinality" 3.6e6
    g1.Smemo.Memo.stats.Slogical.Stats.rows

let () =
  Alcotest.run "stats"
    [
      ( "derivation",
        [
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "group by capped" `Quick test_group_by_capped;
          Alcotest.test_case "local aggregation" `Quick test_group_by_local;
          Alcotest.test_case "filter selectivity" `Quick test_filter_selectivity;
          Alcotest.test_case "join containment" `Quick test_join_containment;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "project ndv" `Quick test_project_ndv_mapping;
          Alcotest.test_case "spool passthrough" `Quick test_spool_passthrough;
          Alcotest.test_case "memo group stats" `Quick test_memo_group_stats;
        ] );
    ]
