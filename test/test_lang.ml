(* Lexer and parser tests. *)

let lex s = List.map fst (Slang.Lexer.tokenize s)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 5
    (List.length (lex "SELECT A FROM R"));
  (* SELECT IDENT FROM IDENT EOF *)
  match lex "R1 = 42 ;" with
  | [ Slang.Token.IDENT "R1"; Slang.Token.EQ; Slang.Token.INT 42; Slang.Token.SEMI; Slang.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_keywords_case_insensitive () =
  match lex "select Select SELECT" with
  | [ Slang.Token.SELECT; Slang.Token.SELECT; Slang.Token.SELECT; Slang.Token.EOF ] -> ()
  | _ -> Alcotest.fail "keywords should be case-insensitive"

let test_lexer_windows_path () =
  match lex {|"...\test.log"|} with
  | [ Slang.Token.STRING {|...\test.log|}; Slang.Token.EOF ] -> ()
  | _ -> Alcotest.fail "backslashes must be literal in strings"

let test_lexer_operators () =
  match lex "<= >= != <> == =" with
  | [
      Slang.Token.LE; Slang.Token.GE; Slang.Token.NEQ; Slang.Token.NEQ;
      Slang.Token.EQ; Slang.Token.EQ; Slang.Token.EOF;
    ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments () =
  match lex "A // comment to end of line\nB" with
  | [ Slang.Token.IDENT "A"; Slang.Token.IDENT "B"; Slang.Token.EOF ] -> ()
  | _ -> Alcotest.fail "comments should be skipped"

let test_lexer_float () =
  match lex "1.5 2" with
  | [ Slang.Token.FLOAT f; Slang.Token.INT 2; Slang.Token.EOF ] ->
      Alcotest.(check (float 0.0001)) "float" 1.5 f
  | _ -> Alcotest.fail "float lexing"

let test_lexer_error_position () =
  match Slang.Lexer.tokenize "A\n  @" with
  | exception Slang.Lexer.Error (_, pos) ->
      Alcotest.(check int) "line" 2 pos.Slang.Token.line;
      Alcotest.(check int) "col" 3 pos.Slang.Token.col
  | _ -> Alcotest.fail "expected a lexer error"

let test_lexer_unterminated_string () =
  match Slang.Lexer.tokenize {|X = "unterminated|} with
  | exception Slang.Lexer.Error (msg, _) ->
      Alcotest.(check bool) "message" true
        (String.starts_with ~prefix:"unterminated" msg)
  | _ -> Alcotest.fail "expected a lexer error"

(* --- parser ------------------------------------------------------------ *)

let parses s = ignore (Slang.Parser.parse_script s)

let test_parse_paper_scripts () =
  List.iter (fun (_, s) -> parses s) Thelpers.small_builtins

let test_parse_extract () =
  match Slang.Parser.parse_script {|R = EXTRACT A,B FROM "f.log" USING X; OUTPUT R TO "o";|} with
  | [
   Slang.Ast.Assign ("R", Slang.Ast.Extract { cols; file; extractor });
   Slang.Ast.Output _;
  ] ->
      Alcotest.(check (list string)) "cols" [ "A"; "B" ] cols;
      Alcotest.(check string) "file" "f.log" file;
      Alcotest.(check string) "extractor" "X" extractor
  | _ -> Alcotest.fail "extract shape"

let test_parse_select_full () =
  let s =
    {|Q = SELECT A, Sum(B) AS S FROM R WHERE A > 1 GROUP BY A HAVING S > 2;
      OUTPUT Q TO "o";|}
  in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { items; where; group_by; having; _ }); _ ]
    ->
      Alcotest.(check int) "items" 2 (List.length items);
      Alcotest.(check bool) "where" true (where <> None);
      Alcotest.(check int) "group by" 1 (List.length group_by);
      Alcotest.(check bool) "having" true (having <> None)
  | _ -> Alcotest.fail "select shape"

let test_parse_join_on () =
  let s = {|Q = SELECT A FROM R JOIN T ON R.A = T.A; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { joins; _ }); _ ] ->
      Alcotest.(check int) "one join" 1 (List.length joins)
  | _ -> Alcotest.fail "join shape"

let test_parse_union () =
  let s = {|Q = R UNION ALL T; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Union_all ("R", "T")); _ ] -> ()
  | _ -> Alcotest.fail "union shape"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let s = {|Q = SELECT A + 2 * 3 AS X FROM R; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { items = [ { item; _ } ]; _ }); _ ]
    -> (
      match item with
      | Slang.Ast.Binop (Relalg.Expr.Add, _, Slang.Ast.Binop (Relalg.Expr.Mul, _, _)) -> ()
      | _ -> Alcotest.fail "precedence")
  | _ -> Alcotest.fail "shape"

let test_parse_and_or_precedence () =
  let s = {|Q = SELECT A FROM R WHERE A = 1 OR B = 2 AND C = 3; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { where = Some w; _ }); _ ] -> (
      match w with
      | Slang.Ast.Or (_, Slang.Ast.And (_, _)) -> ()
      | _ -> Alcotest.fail "AND binds tighter than OR")
  | _ -> Alcotest.fail "shape"

let test_parse_count_star () =
  let s = {|Q = SELECT A, Count(*) AS N FROM R GROUP BY A; OUTPUT Q TO "o";|} in
  match Slang.Parser.parse_script s with
  | [ Slang.Ast.Assign (_, Slang.Ast.Select { items = [ _; { item = Slang.Ast.Call ("Count", [ Slang.Ast.Star ]); _ } ]; _ }); _ ]
    -> ()
  | _ -> Alcotest.fail "count(*)"

let test_parse_errors () =
  let bad =
    [
      "R = ;";
      "R = SELECT FROM X;";
      {|OUTPUT R "missing TO";|};
      "R = EXTRACT A FROM f USING X;" (* unquoted file *);
      "R = SELECT A FROM R" (* missing ; *);
    ]
  in
  List.iter
    (fun s ->
      match Slang.Parser.parse_script s with
      | exception Slang.Parser.Error _ -> ()
      | exception Slang.Lexer.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    bad

let test_parse_error_reports_position () =
  match Slang.Parser.parse_script "R = SELECT\n  ;" with
  | exception Slang.Parser.Error (msg, pos) ->
      Alcotest.(check int) "line" 2 pos.Slang.Token.line;
      Alcotest.(check bool) "msg mentions line" true
        (String.starts_with ~prefix:"line 2" msg)
  | _ -> Alcotest.fail "expected error"

(* printing a parsed script and re-parsing gives the same AST *)
let test_roundtrip () =
  List.iter
    (fun (name, s) ->
      let ast = Slang.Parser.parse_script s in
      let printed = Slang.Ast.to_string ast in
      let ast2 = Slang.Parser.parse_script printed in
      if ast <> ast2 then Alcotest.failf "%s: print/parse roundtrip differs" name)
    Thelpers.small_builtins

let test_roundtrip_random () =
  for seed = 1 to 25 do
    let s = Sworkload.Random_gen.generate ~seed ~statements:8 () in
    let ast = Slang.Parser.parse_script s in
    let ast2 = Slang.Parser.parse_script (Slang.Ast.to_string ast) in
    if ast <> ast2 then Alcotest.failf "seed %d roundtrip differs" seed
  done

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "keyword case" `Quick test_lexer_keywords_case_insensitive;
          Alcotest.test_case "windows paths" `Quick test_lexer_windows_path;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "floats" `Quick test_lexer_float;
          Alcotest.test_case "error position" `Quick test_lexer_error_position;
          Alcotest.test_case "unterminated string" `Quick test_lexer_unterminated_string;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper scripts" `Quick test_parse_paper_scripts;
          Alcotest.test_case "extract" `Quick test_parse_extract;
          Alcotest.test_case "select clauses" `Quick test_parse_select_full;
          Alcotest.test_case "join on" `Quick test_parse_join_on;
          Alcotest.test_case "union all" `Quick test_parse_union;
          Alcotest.test_case "arith precedence" `Quick test_parse_precedence;
          Alcotest.test_case "bool precedence" `Quick test_parse_and_or_precedence;
          Alcotest.test_case "count star" `Quick test_parse_count_star;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
          Alcotest.test_case "roundtrip (paper)" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip (random)" `Quick test_roundtrip_random;
        ] );
    ]
