(* Fingerprint (Definition 1) and Algorithm 1 tests. *)

(* find memo groups by operator content (group numbering is DFS order) *)
let find_groups memo pred =
  let acc = ref [] in
  Smemo.Memo.iter_groups memo (fun g ->
      if pred (List.hd g.Smemo.Memo.exprs).Smemo.Memo.mop then
        acc := g.Smemo.Memo.id :: !acc);
  List.rev !acc

let extracts memo =
  find_groups memo (function Slogical.Logop.Extract _ -> true | _ -> false)

let group_bys_on memo keys =
  find_groups memo (function
    | Slogical.Logop.Group_by { keys = k; _ } -> k = keys
    | _ -> false)

let test_equal_scripts_equal_fingerprints () =
  let m1 = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let m2 = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let f1 = Cse.Fingerprint.of_memo m1 and f2 = Cse.Fingerprint.of_memo m2 in
  for g = 0 to Smemo.Memo.size m1 - 1 do
    Alcotest.(check int)
      (Printf.sprintf "group %d" g)
      (Hashtbl.find f1 g) (Hashtbl.find f2 g)
  done

let test_file_identity () =
  (* same file through different path spellings gets the same fingerprint *)
  let s a b =
    Printf.sprintf
      {|X = EXTRACT A,B,C,D FROM "%s" USING L;
        Y = EXTRACT A,B,C,D FROM "%s" USING L;
        OUTPUT X TO "o1"; OUTPUT Y TO "o2";|}
      a b
  in
  let memo = Thelpers.memo_of (s {|...\test.log|} {|another\dir\test.log|}) in
  let f = Cse.Fingerprint.of_memo memo in
  (match extracts memo with
  | [ x; y ] ->
      Alcotest.(check int) "same FileID" (Hashtbl.find f x) (Hashtbl.find f y)
  | _ -> Alcotest.fail "expected two extracts");
  let memo2 = Thelpers.memo_of (s "test.log" "test2.log") in
  let f2 = Cse.Fingerprint.of_memo memo2 in
  match extracts memo2 with
  | [ x; y ] ->
      Alcotest.(check bool) "different files differ" true
        (Hashtbl.find f2 x <> Hashtbl.find f2 y)
  | _ -> Alcotest.fail "expected two extracts"

let test_structural_equality () =
  let script =
    {|X = EXTRACT A,B,C,D FROM "test.log" USING L;
      Y = EXTRACT A,B,C,D FROM "test.log" USING L;
      GX = SELECT A, Sum(D) AS S FROM X GROUP BY A;
      GY = SELECT A, Sum(D) AS S FROM Y GROUP BY A;
      GZ = SELECT B, Sum(D) AS S FROM Y GROUP BY B;
      OUTPUT GX TO "o1"; OUTPUT GY TO "o2"; OUTPUT GZ TO "o3";|}
  in
  let memo = Thelpers.memo_of script in
  (match extracts memo with
  | [ x; y ] ->
      Alcotest.(check bool) "extracts equal" true
        (Cse.Fingerprint.equal_subexpr memo x y)
  | _ -> Alcotest.fail "expected two extracts");
  (match group_bys_on memo [ "A" ] with
  | [ gx; gy ] ->
      Alcotest.(check bool) "same keys equal" true
        (Cse.Fingerprint.equal_subexpr memo gx gy);
      (match group_bys_on memo [ "B" ] with
      | [ gz ] ->
          Alcotest.(check bool) "different keys differ" false
            (Cse.Fingerprint.equal_subexpr memo gy gz)
      | _ -> Alcotest.fail "expected GB(B)")
  | _ -> Alcotest.fail "expected two GB(A)")

let test_fingerprint_collisions_rejected_structurally () =
  (* GB(A) and GB(B) over the same child share an OpID -- the fingerprints
     collide by construction (Definition 1 hashes only the operator kind),
     and the structural check must tell them apart *)
  let script =
    {|X = EXTRACT A,B,C,D FROM "test.log" USING L;
      G1 = SELECT A, Sum(D) AS S FROM X GROUP BY A;
      G2 = SELECT B, Sum(D) AS S FROM X GROUP BY B;
      OUTPUT G1 TO "o1"; OUTPUT G2 TO "o2";|}
  in
  let memo = Thelpers.memo_of script in
  let f = Cse.Fingerprint.of_memo memo in
  match (group_bys_on memo [ "A" ], group_bys_on memo [ "B" ]) with
  | [ g1 ], [ g2 ] ->
      Alcotest.(check int) "kinds collide" (Hashtbl.find f g1) (Hashtbl.find f g2);
      Alcotest.(check bool) "structure differs" false
        (Cse.Fingerprint.equal_subexpr memo g1 g2)
  | _ -> Alcotest.fail "expected the two aggregations"

(* --- Algorithm 1 --------------------------------------------------------- *)

let shared_of memo = Cse.Spool.identify memo

let test_explicit_sharing_s1 () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let shared = shared_of memo in
  Alcotest.(check int) "one shared group" 1 (List.length shared);
  let s = List.hd shared in
  Alcotest.(check int) "spools GB(A,B,C)" 1 s.Cse.Spool.under;
  Alcotest.(check int) "two consumers" 2 s.Cse.Spool.initial_consumers;
  Alcotest.(check bool) "spool group marked shared" true
    (Smemo.Memo.group memo s.Cse.Spool.spool).Smemo.Memo.shared

let test_duplicate_merging () =
  let script =
    {|X = EXTRACT A,B,C,D FROM "test.log" USING L;
      Y = EXTRACT A,B,C,D FROM "test.log" USING L;
      GX = SELECT A,B,C,Sum(D) AS S FROM X GROUP BY A,B,C;
      GY = SELECT A,B,C,Sum(D) AS S FROM Y GROUP BY A,B,C;
      R1 = SELECT A,B,Sum(S) AS S1 FROM GX GROUP BY A,B;
      R2 = SELECT B,C,Sum(S) AS S2 FROM GY GROUP BY B,C;
      OUTPUT R1 TO "o1"; OUTPUT R2 TO "o2";|}
  in
  let memo = Thelpers.memo_of script in
  let shared = shared_of memo in
  (* GX/GY (and below them X/Y) merge into one shared aggregation; the
     merged extract has a single consumer and is not shared *)
  Alcotest.(check int) "one shared group after merging" 1 (List.length shared);
  Alcotest.(check int) "two consumers" 2
    (List.hd shared).Cse.Spool.initial_consumers

let test_no_double_spool () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  ignore (shared_of memo);
  let again = Cse.Spool.identify memo in
  Alcotest.(check int) "idempotent" 0 (List.length again)

let test_s3_two_shared () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s3 in
  let shared = shared_of memo in
  Alcotest.(check int) "two shared groups" 2 (List.length shared)

let test_s4_three_shared () =
  (* R, R1 and R2 all have two consumers each (Figure 3(c) shape) *)
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s4 in
  let shared = shared_of memo in
  Alcotest.(check int) "three shared groups" 3 (List.length shared);
  List.iter
    (fun (s : Cse.Spool.shared) ->
      Alcotest.(check int) "two consumers each" 2 s.Cse.Spool.initial_consumers)
    shared

let test_s2_three_consumers () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s2 in
  match shared_of memo with
  | [ s ] -> Alcotest.(check int) "three consumers" 3 s.Cse.Spool.initial_consumers
  | l -> Alcotest.failf "expected one shared group, got %d" (List.length l)

let test_consumers_repoint_to_spool () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let shared = List.hd (shared_of memo) in
  let parents = Smemo.Memo.parents memo in
  Alcotest.(check (list int)) "underlying group feeds only the spool"
    [ shared.Cse.Spool.spool ]
    parents.(shared.Cse.Spool.under);
  Alcotest.(check int) "spool has the consumers" 2
    (List.length parents.(shared.Cse.Spool.spool))

let () =
  Alcotest.run "fingerprint"
    [
      ( "definition 1",
        [
          Alcotest.test_case "deterministic" `Quick test_equal_scripts_equal_fingerprints;
          Alcotest.test_case "file identity" `Quick test_file_identity;
          Alcotest.test_case "structural equality" `Quick test_structural_equality;
          Alcotest.test_case "collisions verified" `Quick
            test_fingerprint_collisions_rejected_structurally;
        ] );
      ( "algorithm 1",
        [
          Alcotest.test_case "explicit sharing (S1)" `Quick test_explicit_sharing_s1;
          Alcotest.test_case "duplicate merging" `Quick test_duplicate_merging;
          Alcotest.test_case "idempotent" `Quick test_no_double_spool;
          Alcotest.test_case "S2 consumers" `Quick test_s2_three_consumers;
          Alcotest.test_case "S3 shared" `Quick test_s3_two_shared;
          Alcotest.test_case "S4 shared" `Quick test_s4_three_shared;
          Alcotest.test_case "consumers repointed" `Quick test_consumers_repoint_to_spool;
        ] );
    ]
