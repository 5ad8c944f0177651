(* Conventional (phase-1) optimizer tests: plan shapes, enforcers, winner
   memoization, requirement handling, budget accounting. *)

let cluster = Scost.Cluster.default

let conventional ?(machines = 25) script =
  let catalog = Thelpers.default_catalog () in
  let dag = Thelpers.bind ~catalog script in
  let memo = Smemo.Memo.of_dag ~catalog ~machines dag in
  let ctx =
    Sopt.Optimizer.create
      ~cluster:(Scost.Cluster.with_machines machines cluster)
      memo
  in
  match Sopt.Optimizer.optimize_root ctx with
  | Some plan -> (plan, ctx)
  | None -> Alcotest.fail "no plan"

let test_s1_conventional_shape () =
  let plan, _ = conventional Sworkload.Paper_scripts.s1 in
  Thelpers.assert_valid_plan "s1 conventional" plan;
  (* Figure 8(a): the shared pipeline is executed twice *)
  Alcotest.(check int) "two extracts" 2 (Thelpers.count_op "Extract" plan);
  Alcotest.(check int) "two repartitions" 2
    (Thelpers.count_op "SortMergeExchange" plan
    + Thelpers.count_op "Repartition" plan);
  Alcotest.(check int) "no spools" 0 (Thelpers.count_op "Spool" plan);
  Alcotest.(check int) "two local aggregations" 2
    (Thelpers.count_op "StreamAgg(Local)" plan)

let test_all_paper_scripts_valid () =
  List.iter
    (fun (name, script) ->
      let plan, _ = conventional script in
      Thelpers.assert_valid_plan name plan)
    Thelpers.small_builtins

let test_requirements_pushed_through_shared_gb () =
  (* In S1's conventional plan, each consumer pushes its partitioning
     requirement into its own copy, so no consumer needs an extra
     repartition above the shared aggregation: exchanges = extracts. *)
  let plan, _ = conventional Sworkload.Paper_scripts.s1 in
  let exchanges =
    Thelpers.count_op "SortMergeExchange" plan + Thelpers.count_op "Repartition" plan
  in
  Alcotest.(check int) "one exchange per copy" 2 exchanges

let test_winner_memoization () =
  let _, ctx = conventional Sworkload.Paper_scripts.s1 in
  let tasks_before = ctx.Sopt.Optimizer.budget.Sopt.Budget.tasks in
  (* re-optimizing the root hits the winner cache: no new tasks *)
  ignore (Sopt.Optimizer.optimize_root ctx);
  Alcotest.(check int) "cached" tasks_before
    ctx.Sopt.Optimizer.budget.Sopt.Budget.tasks

(* The branch-and-bound contract, on every memoized winner of S1: with no
   bound [log_phys_opt] rebuilds the plan [optimize_group] memoized; under
   bound 0, which every plan exceeds, it raises [Above_bound] instead of
   returning an answer. *)
let test_bounded_log_phys_opt () =
  let _, ctx = conventional Sworkload.Paper_scripts.s1 in
  let plan_string p = Fmt.str "%a" Sphys.Plan_pp.pp p in
  let checked = ref 0 in
  Smemo.Memo.iter_groups ctx.Sopt.Optimizer.memo (fun g ->
      List.iter
        (fun (w : Smemo.Memo.winner) ->
          match w.Smemo.Memo.wplan with
          | None -> ()
          | Some p ->
              incr checked;
              let x = Sopt.Extreq.plain ctx.Sopt.Optimizer.intern w.Smemo.Memo.wreq in
              (match Sopt.Optimizer.optimize_group ctx g x with
              | Some q when q == p -> ()
              | _ -> Alcotest.fail "optimize_group missed its own winner");
              (match Sopt.Optimizer.log_phys_opt ctx g x with
              | Some q ->
                  Alcotest.(check string) "unbounded = winner" (plan_string p)
                    (plan_string q)
              | None -> Alcotest.fail "unbounded call found no plan");
              Alcotest.check_raises "bound 0" Sopt.Optimizer.Above_bound
                (fun () ->
                  ignore (Sopt.Optimizer.log_phys_opt ctx ~bound:0. g x)))
        (Smemo.Memo.winners_of g));
  Alcotest.(check bool) "winners checked" true (!checked > 10)

let test_serial_cluster () =
  (* a 1-machine cluster still produces correct plans *)
  let plan, _ = conventional ~machines:1 Sworkload.Paper_scripts.s1 in
  Thelpers.assert_valid_plan "serial" plan

let test_plan_costs_positive () =
  let plan, _ = conventional Sworkload.Paper_scripts.s3 in
  Sphys.Plan.fold
    (fun () n ->
      if n.Sphys.Plan.op_cost < 0.0 then Alcotest.fail "negative op cost";
      if n.Sphys.Plan.sbase < n.Sphys.Plan.op_cost then
        Alcotest.fail "region cost smaller than op cost")
    () plan

let test_output_order_preserved () =
  let plan, _ = conventional Sworkload.Paper_scripts.s2 in
  let outputs =
    List.filter_map
      (function Sphys.Physop.P_output { file } -> Some file | _ -> None)
      (Thelpers.operators plan)
  in
  Alcotest.(check (list string)) "three outputs in script order"
    [ "result1.out"; "result2.out"; "result3.out" ]
    outputs

let test_budget_task_counting () =
  let _, ctx = conventional Sworkload.Paper_scripts.s1 in
  Alcotest.(check bool) "tasks counted" true
    (ctx.Sopt.Optimizer.budget.Sopt.Budget.tasks > 5)

let test_budget_exhaustion_flag () =
  let b = Sopt.Budget.create ~max_tasks:3 () in
  Alcotest.(check bool) "fresh" false (Sopt.Budget.exhausted b);
  Sopt.Budget.tick b;
  Sopt.Budget.tick b;
  Sopt.Budget.tick b;
  Alcotest.(check bool) "exhausted" true (Sopt.Budget.exhausted b)

(* every plan the optimizer produces on random scripts passes the checker *)
let test_random_scripts_valid () =
  for seed = 1 to 30 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:9 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let dag = Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script) in
    let memo = Smemo.Memo.of_dag ~catalog ~machines:25 dag in
    let ctx = Sopt.Optimizer.create ~cluster memo in
    match Sopt.Optimizer.optimize_root ctx with
    | Some plan -> Thelpers.assert_valid_plan (Printf.sprintf "seed %d" seed) plan
    | None -> Alcotest.failf "seed %d: no plan" seed
  done

let test_join_plan_co_partitioned () =
  let plan, _ = conventional Sworkload.Paper_scripts.s4 in
  Thelpers.assert_valid_plan "s4" plan;
  Alcotest.(check bool) "join present" true
    (Thelpers.count_op "HashJoin" plan + Thelpers.count_op "MergeJoin" plan >= 1)

(* The candidate filter's hot path (static checks decided once per
   alternative, no re-derivation of delivered properties) against the
   independent checker, on every candidate the conventional, phase-1 and
   phase-2 searches build. *)
let filter_agrees name ~catalog script =
  let seen = ref 0 and rejected = ref 0 in
  let observe req (node : Sphys.Plan.t) verdict =
    incr seen;
    if not verdict then incr rejected;
    let expected =
      Sphys.Plan_check.check_op node = []
      && Sphys.Reqprops.satisfied node.Sphys.Plan.props req
    in
    if verdict <> expected then
      Alcotest.failf "%s: filter says %b, checker %b, for %s under %s" name
        verdict expected
        (Sphys.Physop.to_string node.Sphys.Plan.op)
        (Sphys.Reqprops.to_string req)
  in
  let dag = Thelpers.bind ~catalog script in
  let conv = Smemo.Memo.of_dag ~catalog ~machines:25 dag in
  ignore
    (Sopt.Optimizer.optimize_root (Sopt.Optimizer.create ~observe ~cluster conv));
  let memo = Smemo.Memo.of_dag ~catalog ~machines:25 dag in
  ignore (Cse.Spool.identify memo);
  ignore (Cse.Phase2.optimize ~observe ~cluster memo);
  (!seen, !rejected)

let test_candidate_filter_equivalence () =
  let random seed =
    ( Sworkload.Random_gen.catalog (),
      Sworkload.Random_gen.generate ~seed ~statements:8 () )
  in
  let cases =
    List.map
      (fun (w : Sworkload.Builtin.t) -> (w.name, (w.catalog (), w.script)))
      Sworkload.Builtin.all
    @ List.init 25 (fun i ->
          (Printf.sprintf "random seed %d" (i + 1), random (i + 1)))
  in
  let seen, rejected =
    List.fold_left
      (fun (s, r) (name, (catalog, script)) ->
        let s', r' = filter_agrees name ~catalog script in
        (s + s', r + r'))
      (0, 0) cases
  in
  (* both verdicts occur, so the comparison is not vacuous *)
  Alcotest.(check bool) "candidates rejected" true (rejected > 0);
  Alcotest.(check bool) "candidates accepted" true (seen > rejected)

(* Every operator kind the candidate filter accepts must be executed by
   some plan: an alternative that is built and costed on every search but
   never chosen is dead weight in the plan space.  The corpus is the
   paper's scripts, LS1 and random scripts, through the three passes. *)
let test_accepted_operators_chosen () =
  let accepted = Hashtbl.create 32 and chosen = Hashtbl.create 32 in
  let kind (n : Sphys.Plan.t) = Sphys.Physop.short_name n.Sphys.Plan.op in
  let observe _ node verdict =
    if verdict then Hashtbl.replace accepted (kind node) ()
  in
  let run ~catalog script =
    let memo =
      Smemo.Memo.of_dag ~catalog ~machines:25 (Thelpers.bind ~catalog script)
    in
    ignore (Cse.Spool.identify memo);
    let o = Cse.Phase2.optimize ~observe ~cluster memo in
    List.iter
      (Option.iter
         (Sphys.Plan.fold (fun () n -> Hashtbl.replace chosen (kind n) ()) ()))
      [ o.Cse.Phase2.conventional_plan; o.phase1_plan; o.plan ]
  in
  List.iter
    (fun name ->
      let script, catalog = Thelpers.builtin name in
      run ~catalog script)
    [ "S1"; "S2"; "S3"; "S4"; "IND"; "LS1" ];
  for seed = 1 to 25 do
    run ~catalog:(Sworkload.Random_gen.catalog ())
      (Sworkload.Random_gen.generate ~seed ~statements:8 ())
  done;
  Alcotest.(check bool) "candidates accepted" true (Hashtbl.length accepted > 0);
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem chosen k) then
        Alcotest.failf "%s: no plan in the corpus executes this operator" k)
    accepted

let () =
  Alcotest.run "optimizer"
    [
      ( "plans",
        [
          Alcotest.test_case "S1 shape (Figure 8a)" `Quick test_s1_conventional_shape;
          Alcotest.test_case "paper scripts valid" `Quick test_all_paper_scripts_valid;
          Alcotest.test_case "requirement pushdown" `Quick
            test_requirements_pushed_through_shared_gb;
          Alcotest.test_case "serial cluster" `Quick test_serial_cluster;
          Alcotest.test_case "join co-partitioning" `Quick test_join_plan_co_partitioned;
          Alcotest.test_case "random scripts" `Quick test_random_scripts_valid;
          Alcotest.test_case "output order" `Quick test_output_order_preserved;
        ] );
      ( "costs",
        [
          Alcotest.test_case "positive" `Quick test_plan_costs_positive;
        ] );
      ( "engine",
        [
          Alcotest.test_case "winner memoization" `Quick test_winner_memoization;
          Alcotest.test_case "task counting" `Quick test_budget_task_counting;
          Alcotest.test_case "budget flag" `Quick test_budget_exhaustion_flag;
          Alcotest.test_case "candidate filter = plan checker" `Slow
            test_candidate_filter_equivalence;
          Alcotest.test_case "bounded log_phys_opt" `Quick
            test_bounded_log_phys_opt;
          Alcotest.test_case "accepted operators are chosen" `Quick
            test_accepted_operators_chosen;
        ] );
    ]
