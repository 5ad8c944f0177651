(* Memo structure tests. *)

let test_of_dag_s1 () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  Alcotest.(check int) "7 groups" 7 (Smemo.Memo.size memo);
  Alcotest.(check int) "7 expressions" 7 (Smemo.Memo.expr_count memo);
  let root = Smemo.Memo.root_group memo in
  match (List.hd root.Smemo.Memo.exprs).Smemo.Memo.mop with
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
  let e = List.hd g.Smemo.Memo.exprs in
  Smemo.Memo.add_expr g e;
  Alcotest.(check int) "duplicate expression ignored" 1
    (List.length g.Smemo.Memo.exprs)

let test_exploration_adds_two_stage () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let g = Smemo.Memo.group memo 1 in
  Alcotest.(check int) "the split fires once" 1
    (Sopt.Rules.explore memo g);
  Alcotest.(check int) "global/local expression added" 2
    (List.length g.Smemo.Memo.exprs);
  (* idempotent per group *)
  Alcotest.(check int) "nothing fires again" 0 (Sopt.Rules.explore memo g);
  Alcotest.(check int) "idempotent" 2 (List.length g.Smemo.Memo.exprs);
  (* even with the explored flag cleared, the rule itself must not
     duplicate the rewrite *)
  let before = Smemo.Memo.size memo in
  g.Smemo.Memo.explored <- false;
  Alcotest.(check int) "nothing fires on re-exploration" 0
    (Sopt.Rules.explore memo g);
  Alcotest.(check int) "no new group on re-exploration" before
    (Smemo.Memo.size memo);
  Alcotest.(check int) "no new expr on re-exploration" 2
    (List.length g.Smemo.Memo.exprs)

let test_group_children () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let root = Smemo.Memo.root_group memo in
  Alcotest.(check (list int)) "sequence children" [ 3; 5 ]
    (Smemo.Memo.group_children root)

(* Dedup and insertion order at 50 expressions in one group.  The
   exploration rules put at most two expressions in a group (see "at most
   two expressions per group"), so a width of tens already exceeds any
   workload's; [add_expr]'s list scan and append are quadratic in it, and
   the bound catches a slowdown by a large factor, not the quadratic
   shape. *)
let test_add_expr_wide () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s1 in
  let g = Smemo.Memo.group memo 1 in
  let base = List.hd g.Smemo.Memo.exprs in
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
  let n = 50 in
  let started = Unix.gettimeofday () in
  for i = 1 to n do
    Smemo.Memo.add_expr g (alt i)
  done;
  (* re-adding every one of them is a no-op *)
  for i = 1 to n do
    Smemo.Memo.add_expr g (alt i)
  done;
  let elapsed = Unix.gettimeofday () -. started in
  let es = g.Smemo.Memo.exprs in
  Alcotest.(check int) "all distinct expressions kept" (n + 1)
    (List.length es);
  Alcotest.(check bool) "insertion order preserved" true
    (List.hd es = base && List.nth es 1 = alt 1 && List.nth es n = alt n);
  (* well under a millisecond; the generous bound keeps the assertion
     robust on slow CI machines *)
  Alcotest.(check bool)
    (Printf.sprintf "wide exploration fast enough (%.3fs)" elapsed)
    true (elapsed < 5.0)

(* Brute-force reference for [parents] and [reachable]: recompute both
   from scratch by scanning every group's expressions, and compare after
   each step of a mutation sequence. *)
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

let check_against_brute_force memo label =
  let live_ref, parents_ref = brute_parents memo in
  let live = Smemo.Memo.reachable memo in
  let parents = Smemo.Memo.parents memo in
  Alcotest.(check (array bool)) (label ^ ": reachable") live_ref live;
  Alcotest.(check (array (list int))) (label ^ ": parents") parents_ref parents

let test_parents_brute_force () =
  let memo = Thelpers.memo_of Sworkload.Paper_scripts.s3 in
  check_against_brute_force memo "fresh memo";
  (* run the full CSE identification (merges + spool insertion) *)
  let _shared = Cse.Spool.identify memo in
  check_against_brute_force memo "after identify";
  (* exploration adds groups and expressions *)
  Smemo.Memo.iter_groups memo (fun g ->
      ignore (Sopt.Rules.explore memo g));
  check_against_brute_force memo "after exploration";
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
  check_against_brute_force memo "after manual redirect";
  (* a wholesale assignment of a group's expressions *)
  let root = Smemo.Memo.root_group memo in
  root.Smemo.Memo.exprs <- List.rev root.Smemo.Memo.exprs;
  check_against_brute_force memo "after assigning exprs"

(* The premise of plain-list groups: after a full pipeline run (spools,
   exploration, both phases) no group holds more than two expressions,
   its original one and at most one [gb_split] rewrite. *)
let test_at_most_two_exprs () =
  let check label ~catalog script =
    let budget = Sopt.Budget.create ~max_tasks:20_000 () in
    let r = Cse.Pipeline.run ~budget ~catalog script in
    Smemo.Memo.iter_groups r.Cse.Pipeline.memo (fun g ->
        let n = List.length g.Smemo.Memo.exprs in
        if n > 2 then
          Alcotest.failf "%s: group %d holds %d expressions" label
            g.Smemo.Memo.id n)
  in
  List.iter
    (fun (w : Sworkload.Builtin.t) ->
      check w.name ~catalog:(w.catalog ()) w.script)
    Sworkload.Builtin.all;
  List.iter
    (fun statements ->
      for seed = 1 to 25 do
        check
          (Printf.sprintf "seed %d, %d statements" seed statements)
          ~catalog:(Sworkload.Random_gen.catalog ())
          (Sworkload.Random_gen.generate ~seed ~statements ())
      done)
    [ 8; 12 ]

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
          Alcotest.test_case "parents and reachable vs brute force" `Quick
            test_parents_brute_force;
          Alcotest.test_case "group children" `Quick test_group_children;
          Alcotest.test_case "at most two expressions per group" `Quick
            test_at_most_two_exprs;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "two-stage aggregation" `Quick
            test_exploration_adds_two_stage;
        ] );
    ]
