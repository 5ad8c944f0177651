(* Memo structure tests. *)

let test_of_dag_s1 () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  Alcotest.(check int) "7 groups" 7 (Smemo.Memo.size memo);
  Alcotest.(check int) "7 expressions" 7 (Smemo.Memo.expr_count memo);
  let root = Smemo.Memo.root_group memo in
  match (List.hd (Smemo.Memo.exprs root)).Smemo.Memo.mop with
  | Slogical.Logop.Sequence -> ()
  | _ -> Alcotest.fail "root is the sequence"

let test_parents () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let parents = Smemo.Memo.parents memo in
  (* group 1 = GB(A,B,C) has the two consumer GBs as parents *)
  Alcotest.(check int) "shared group has 2 parents" 2 (List.length parents.(1));
  Alcotest.(check (list int)) "root has no parents" []
    parents.(memo.Smemo.Memo.root)

let test_redirect () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  (* create a spool over group 1 manually and redirect *)
  let g1 = Smemo.Memo.group memo 1 in
  let spool =
    Smemo.Memo.add_group memo
      { Smemo.Memo.mop = Slogical.Logop.Spool; children = [ 1 ] }
      g1.Smemo.Memo.schema
  in
  Smemo.Memo.redirect memo ~from_:1 ~to_:spool.Smemo.Memo.id
    ~except:spool.Smemo.Memo.id;
  let parents = Smemo.Memo.parents memo in
  Alcotest.(check int) "spool took over the consumers" 2
    (List.length parents.(spool.Smemo.Memo.id));
  Alcotest.(check (list int)) "group 1 now feeds only the spool"
    [ spool.Smemo.Memo.id ] parents.(1)

let test_reachable () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let live = Smemo.Memo.reachable memo in
  Alcotest.(check bool) "all initial groups reachable" true
    (Array.for_all Fun.id (Array.sub live 0 7))

let test_add_expr_dedup () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let g = Smemo.Memo.group memo 1 in
  let e = List.hd (Smemo.Memo.exprs g) in
  Smemo.Memo.add_expr memo g e;
  Alcotest.(check int) "duplicate expression ignored" 1
    (List.length (Smemo.Memo.exprs g))

let test_exploration_adds_two_stage () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let g = Smemo.Memo.group memo 1 in
  Alcotest.(check int) "the split fires once" 1
    (Sopt.Rules.explore memo g);
  Alcotest.(check int) "global/local expression added" 2
    (List.length (Smemo.Memo.exprs g));
  (* idempotent per group *)
  Alcotest.(check int) "nothing fires again" 0 (Sopt.Rules.explore memo g);
  Alcotest.(check int) "idempotent" 2 (List.length (Smemo.Memo.exprs g));
  (* even with the explored flag cleared, the rule itself must not
     duplicate the rewrite *)
  let before = Smemo.Memo.size memo in
  g.Smemo.Memo.explored <- false;
  Alcotest.(check int) "nothing fires on re-exploration" 0
    (Sopt.Rules.explore memo g);
  Alcotest.(check int) "no new group on re-exploration" before
    (Smemo.Memo.size memo);
  Alcotest.(check int) "no new expr on re-exploration" 2
    (List.length (Smemo.Memo.exprs g))

let test_group_children () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let root = Smemo.Memo.root_group memo in
  Alcotest.(check (list int)) "sequence children" [ 3; 5 ]
    (Smemo.Memo.group_children root)

(* Regression for the quadratic add_expr (structural List.mem scan plus
   [exprs @ [e]] append): a wide exploration adding thousands of distinct
   expressions must stay fast, preserve insertion order, and dedup every
   re-insertion. *)
let test_add_expr_wide () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let g = Smemo.Memo.group memo 1 in
  let base = List.hd (Smemo.Memo.exprs g) in
  (* distinct equivalent expressions over an existing child group: filters
     with distinct predicates *)
  let alt i =
    {
      Smemo.Memo.mop =
        Slogical.Logop.Filter
          {
            pred =
              Relalg.Expr.Cmp
                ( Relalg.Expr.Le,
                  Relalg.Expr.Col "A",
                  Relalg.Expr.Lit (Relalg.Value.Int i) );
          };
      children = [ 0 ];
    }
  in
  let n = 5000 in
  let started = Unix.gettimeofday () in
  for i = 1 to n do
    Smemo.Memo.add_expr memo g (alt i)
  done;
  (* re-adding every one of them is a no-op *)
  for i = 1 to n do
    Smemo.Memo.add_expr memo g (alt i)
  done;
  let elapsed = Unix.gettimeofday () -. started in
  let es = Smemo.Memo.exprs g in
  Alcotest.(check int) "all distinct expressions kept" (n + 1)
    (List.length es);
  Alcotest.(check bool) "insertion order preserved" true
    (List.hd es = base && List.nth es 1 = alt 1 && List.nth es n = alt n);
  (* the old quadratic implementation needs tens of seconds here; the
     hashtable-backed one is effectively instant.  A generous bound keeps
     the assertion robust on slow CI machines. *)
  Alcotest.(check bool)
    (Printf.sprintf "wide exploration fast enough (%.3fs)" elapsed)
    true (elapsed < 5.0)

(* Brute-force reference for the incrementally-maintained referrer tables:
   recompute parents/reachable from scratch by scanning every group's
   expressions, and compare after a mutation sequence. *)
let brute_parents (memo : Smemo.Memo.t) =
  let live = Array.make (Smemo.Memo.size memo) false in
  let rec visit id =
    if not live.(id) then begin
      live.(id) <- true;
      List.iter visit (Smemo.Memo.group_children (Smemo.Memo.group memo id))
    end
  in
  visit memo.Smemo.Memo.root;
  let ps = Array.make (Smemo.Memo.size memo) [] in
  Smemo.Memo.iter_groups memo (fun g ->
      if live.(g.Smemo.Memo.id) then
        List.iter
          (fun c ->
            if not (List.mem g.Smemo.Memo.id ps.(c)) then
              ps.(c) <- g.Smemo.Memo.id :: ps.(c))
          (Smemo.Memo.group_children g));
  (live, Array.map (List.sort_uniq Int.compare) ps)

let check_incremental_consistency memo label =
  let live_ref, parents_ref = brute_parents memo in
  let live = Smemo.Memo.reachable memo in
  let parents = Smemo.Memo.parents memo in
  Alcotest.(check (array bool)) (label ^ ": reachable") live_ref live;
  Alcotest.(check (array (list int))) (label ^ ": parents") parents_ref parents

let test_incremental_maintenance () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s3 in
  check_incremental_consistency memo "fresh memo";
  (* run the full CSE identification (merges + spool insertion) *)
  let _shared = Cse.Spool.identify memo in
  check_incremental_consistency memo "after identify";
  (* exploration adds groups and expressions *)
  Smemo.Memo.iter_groups memo (fun g ->
      ignore (Sopt.Rules.explore memo g));
  check_incremental_consistency memo "after exploration";
  (* a manual redirect through a fresh spool *)
  let target = List.hd (Smemo.Memo.group_children (Smemo.Memo.root_group memo)) in
  let tg = Smemo.Memo.group memo target in
  let spool =
    Smemo.Memo.add_group memo
      { Smemo.Memo.mop = Slogical.Logop.Spool; children = [ target ] }
      tg.Smemo.Memo.schema
  in
  Smemo.Memo.redirect memo ~from_:target ~to_:spool.Smemo.Memo.id
    ~except:spool.Smemo.Memo.id;
  check_incremental_consistency memo "after manual redirect";
  (* wholesale replacement keeps the tables consistent too *)
  let root = Smemo.Memo.root_group memo in
  Smemo.Memo.set_exprs memo root (Smemo.Memo.exprs root);
  check_incremental_consistency memo "after set_exprs"

let () =
  Alcotest.run "memo"
    [
      ( "structure",
        [
          Alcotest.test_case "of_dag" `Quick test_of_dag_s1;
          Alcotest.test_case "parents" `Quick test_parents;
          Alcotest.test_case "redirect" `Quick test_redirect;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "add_expr dedup" `Quick test_add_expr_dedup;
          Alcotest.test_case "add_expr wide exploration" `Quick
            test_add_expr_wide;
          Alcotest.test_case "incremental referrers" `Quick
            test_incremental_maintenance;
          Alcotest.test_case "group children" `Quick test_group_children;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "two-stage aggregation" `Quick
            test_exploration_adds_two_stage;
        ] );
    ]
