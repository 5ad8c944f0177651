open Sphys

(* End-to-end tests of the phase-2 re-optimization (Algorithms 4 and 5):
   plan shapes against Figure 8, single materialization, enforcement
   uniformity, compensation above the spool, budget behaviour and the
   comparison against conventional optimization. *)

let s1_report = lazy (Thelpers.pipeline Sworkload.Paper_scripts.s1)

let test_cse_cheaper_on_paper_scripts () =
  List.iter
    (fun (name, script) ->
      let r = Thelpers.pipeline script in
      if r.Cse.Pipeline.cse_cost > r.Cse.Pipeline.conventional_cost then
        Alcotest.failf "%s: CSE plan costlier (%g vs %g)" name
          r.Cse.Pipeline.cse_cost r.Cse.Pipeline.conventional_cost;
      Thelpers.assert_valid_plan name r.Cse.Pipeline.cse_plan;
      Thelpers.assert_valid_plan (name ^ " conv") r.Cse.Pipeline.conventional_plan)
    Thelpers.small_builtins

let test_figure8_shape () =
  let r = Lazy.force s1_report in
  let plan = r.Cse.Pipeline.cse_plan in
  (* one extract, one repartition, one spool producer with two references *)
  Alcotest.(check int) "extract once" 1 (Thelpers.distinct_count_op "Extract" plan);
  Alcotest.(check int) "repartition once" 1
    (Thelpers.distinct_count_op "SortMergeExchange" plan
    + Thelpers.distinct_count_op "Repartition" plan);
  let distinct, refs = Scost.Dagcost.spool_counts plan in
  Alcotest.(check int) "one materialization" 1 distinct;
  Alcotest.(check int) "two references" 2 refs

let test_figure8_partitioning_on_b () =
  (* the winning round enforces partitioning on {B}: the only scheme that
     satisfies both consumers without repartitioning the shared result *)
  let r = Lazy.force s1_report in
  let spool_part = ref None in
  Plan.fold
    (fun () n ->
      match n.Plan.op with
      | Physop.P_spool -> spool_part := Some n.Plan.props.Props.part
      | _ -> ())
    () r.Cse.Pipeline.cse_plan;
  match !spool_part with
  | Some (Partition.Hashed s) ->
      Alcotest.check Thelpers.colset_t "hash{B}" (Thelpers.colset [ "B" ]) s
  | _ -> Alcotest.fail "spool not hash-partitioned"

let test_consumers_share_one_plan_value () =
  let r = Lazy.force s1_report in
  let spools = ref [] in
  Plan.fold
    (fun () n ->
      match n.Plan.op with
      | Physop.P_spool -> spools := n :: !spools
      | _ -> ())
    () r.Cse.Pipeline.cse_plan;
  match !spools with
  | [ a; b ] ->
      Alcotest.(check bool) "physically shared" true (a == b)
  | l -> Alcotest.failf "expected two spool references, got %d" (List.length l)

let test_compensation_above_spool () =
  (* one consumer needs a different sort order than the spool delivers:
     a Sort must appear between the spool and that consumer, and the plan
     must still validate *)
  let r = Lazy.force s1_report in
  Alcotest.(check bool) "a compensating sort exists" true
    (Thelpers.count_op "Sort" r.Cse.Pipeline.cse_plan >= 2)

let test_phase1_plan_also_valid () =
  let r = Lazy.force s1_report in
  Thelpers.assert_valid_plan "phase 1" r.Cse.Pipeline.phase1_plan;
  (* the final plan is at least as cheap as the phase-1 plan *)
  Alcotest.(check bool) "phase 2 no worse" true
    (r.Cse.Pipeline.cse_cost
    <= Scost.Dagcost.cost Scost.Cluster.default r.Cse.Pipeline.phase1_plan
       +. 1e-6)

let test_s3_distinct_lcas_optimized () =
  let r = Thelpers.pipeline Sworkload.Paper_scripts.s3 in
  Alcotest.(check int) "both shared groups got LCAs" 2
    (List.length r.Cse.Pipeline.lcas);
  let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
  Alcotest.(check int) "two materializations" 2 distinct;
  Alcotest.(check int) "four references" 4 refs

let test_s2_three_consumer_sharing () =
  let r = Thelpers.pipeline Sworkload.Paper_scripts.s2 in
  let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
  Alcotest.(check int) "one materialization" 1 distinct;
  Alcotest.(check int) "three references" 3 refs;
  (* more consumers than S1 => bigger relative saving *)
  let r1 = Lazy.force s1_report in
  Alcotest.(check bool) "S2 saves more than S1" true
    (Cse.Pipeline.ratio r < Cse.Pipeline.ratio r1)

(* The exact round-count tests run with pruning off: they verify the
   enumeration machinery itself (one round per candidate).  Pruned-mode
   accounting is covered in test_prune.ml. *)
let exhaustive = Cse.Config.no_pruning Cse.Config.default

let test_round_counts_s1 () =
  let r = Thelpers.pipeline ~config:exhaustive Sworkload.Paper_scripts.s1 in
  let history = List.assoc (fst (List.hd r.Cse.Pipeline.lcas)) r.Cse.Pipeline.history_sizes in
  Alcotest.(check int) "one round per property set" history
    r.Cse.Pipeline.rounds_executed

let test_independent_sequencing_in_pipeline () =
  let r =
    Thelpers.pipeline ~config:exhaustive Sworkload.Paper_scripts.independent_pair
  in
  let sizes = List.map snd r.Cse.Pipeline.history_sizes in
  (match sizes with
  | [ a; b ] ->
      Alcotest.(check int) "sequential rounds" (a + b - 1)
        r.Cse.Pipeline.rounds_executed
  | _ -> Alcotest.fail "expected two shared groups");
  (* without VIII-A the same script needs the full product *)
  let r2 =
    Thelpers.pipeline
      ~config:{ exhaustive with Cse.Config.use_independent_groups = false }
      Sworkload.Paper_scripts.independent_pair
  in
  (match sizes with
  | [ a; b ] ->
      Alcotest.(check int) "product rounds" (a * b) r2.Cse.Pipeline.rounds_executed
  | _ -> ());
  (* both configurations find equally good plans here *)
  Alcotest.(check (float 1.0)) "same cost" r.Cse.Pipeline.cse_cost
    r2.Cse.Pipeline.cse_cost

let test_budget_cuts_rounds () =
  let budget = Sopt.Budget.create ~max_tasks:1 () in
  let r = Thelpers.pipeline ~budget Sworkload.Paper_scripts.s4 in
  (* the budget is exhausted immediately: no rounds run, but a valid plan
     (the phase-1 shape) still comes out *)
  Alcotest.(check int) "no rounds" 0 r.Cse.Pipeline.rounds_executed;
  Thelpers.assert_valid_plan "budgeted" r.Cse.Pipeline.cse_plan

(* A task cap halfway between the zero-round run's work and the full
   run's cuts phase 2 part-way, and the budget reads no clock: a rerun
   under the same cap gives the same plan. *)
let test_budget_partial_rounds () =
  let s4 = Sworkload.Paper_scripts.s4 in
  let capped max_tasks =
    let budget = Sopt.Budget.create ?max_tasks () in
    let r = Thelpers.pipeline ~budget s4 in
    (r, budget.Sopt.Budget.tasks)
  in
  let _, zero_round = capped (Some 0) and unbounded, full = capped None in
  let cap = (zero_round + full) / 2 in
  let r, _ = capped (Some cap) and rerun, _ = capped (Some cap) in
  Alcotest.(check bool) "some but strictly fewer rounds than unbounded" true
    (r.Cse.Pipeline.rounds_executed > 0
    && r.Cse.Pipeline.rounds_executed < unbounded.Cse.Pipeline.rounds_executed);
  Alcotest.(check bool) "truncated" true r.Cse.Pipeline.budget_exhausted;
  let plan (r : Cse.Pipeline.report) =
    Fmt.str "%a" Sphys.Plan_pp.pp r.Cse.Pipeline.cse_plan
  in
  Alcotest.(check string) "identical plan on rerun" (plan r) (plan rerun);
  Thelpers.assert_valid_plan "partial" r.Cse.Pipeline.cse_plan;
  Alcotest.(check bool) "still no costlier than phase 1" true
    (r.Cse.Pipeline.cse_cost
    <= Scost.Dagcost.cost Scost.Cluster.default r.Cse.Pipeline.phase1_plan +. 1e-6)

(* Every generated phase-2 round is charged to the budget, also a round
   answered entirely from memoized winners: the budget counts the CSE
   phases' optimization tasks plus one per round, so a task cap leaves at
   most its headroom over a zero-round run's tasks in rounds.  S4's one
   LCA is the root, so the zero-round run's tasks all precede the first
   round. *)
let test_budget_charges_rounds () =
  let rounds (r : Cse.Pipeline.report) =
    r.Cse.Pipeline.rounds_executed + r.Cse.Pipeline.rounds_aborted_bound
  in
  List.iter
    (fun (name, script) ->
      let budget = Sopt.Budget.create () in
      let r = Thelpers.pipeline ~audit:false ~budget script in
      Alcotest.(check int)
        (name ^ ": budget tasks = CSE tasks + rounds")
        (r.Cse.Pipeline.cse_tasks + rounds r)
        budget.Sopt.Budget.tasks)
    Thelpers.small_builtins;
  let s4 = Sworkload.Paper_scripts.s4 in
  let base =
    let budget = Sopt.Budget.create ~max_tasks:0 () in
    ignore (Thelpers.pipeline ~audit:false ~budget s4);
    budget.Sopt.Budget.tasks
  in
  List.iter
    (fun headroom ->
      let budget = Sopt.Budget.create ~max_tasks:(base + headroom) () in
      let r = Thelpers.pipeline ~budget s4 in
      Alcotest.(check bool)
        (Printf.sprintf "%d rounds within headroom %d" (rounds r) headroom)
        true
        (rounds r <= headroom))
    [ 1; 2; 5; 20 ]

let test_extensions_do_not_change_s1 () =
  let r = Lazy.force s1_report in
  let r2 = Thelpers.pipeline ~config:Cse.Config.no_extensions Sworkload.Paper_scripts.s1 in
  Alcotest.(check (float 1.0)) "same plan cost" r.Cse.Pipeline.cse_cost
    r2.Cse.Pipeline.cse_cost

let test_execution_matches_on_all_scripts () =
  List.iter
    (fun (name, script) ->
      let catalog = Thelpers.default_catalog () in
      let r = Cse.Pipeline.run ~catalog script in
      let v =
        Sexec.Validate.check ~machines:13 catalog r.Cse.Pipeline.dag
          r.Cse.Pipeline.cse_plan
      in
      if not v.Sexec.Validate.ok then
        Alcotest.failf "%s: %s" name
          (String.concat "; " v.Sexec.Validate.mismatches))
    Thelpers.small_builtins

(* --- share-free groups: one answer for all phases ---------------------- *)

(* A share-free group (no shared group at or below it) answers phases 1-2
   with its phase-0 winner.  The premise, over every builtin and 25
   random scripts: such a group holds no phase-1 winner, since phase 1
   asks it nothing phase 0 has not answered (phase 2 may ask new
   requirements under pins, answered once for all phases too), and no
   enforcement map reaches it; a group above a spool holds a phase-1
   winner for every requirement phase 0 asked of it; and each share-free
   winner costs the same as a fresh phase-1 optimization of its (group,
   requirement) in a context that has no phase-0 winner to reuse. *)
let test_share_free_premise () =
  let check name script catalog =
    let r = Cse.Pipeline.run ~catalog script in
    let si = r.Cse.Pipeline.shared_info in
    let memo = r.Cse.Pipeline.memo in
    let free = ref [] in
    Smemo.Memo.iter_groups memo (fun g ->
        let gid = g.Smemo.Memo.id in
        let winners = Smemo.Memo.winners_of g in
        let asked phase =
          List.filter_map
            (fun (w : Smemo.Memo.winner) ->
              if w.Smemo.Memo.wphase = phase then Some w.Smemo.Memo.wreq
              else None)
            winners
        in
        if Cse.Shared_info.share_free si gid then
          List.iter
            (fun (w : Smemo.Memo.winner) ->
              if w.Smemo.Memo.wphase = 1 || w.Smemo.Memo.wenforce <> [] then
                Alcotest.failf
                  "%s: share-free group %d holds a phase-%d winner under %s"
                  name gid w.Smemo.Memo.wphase
                  (Reqprops.to_string w.Smemo.Memo.wreq);
              free := (gid, w) :: !free)
            winners
        else if Cse.Shared_info.shared_below si gid <> [] then
          let phase1 = asked 1 in
          List.iter
            (fun req ->
              if not (List.exists (Reqprops.equal req) phase1) then
                Alcotest.failf "%s: group %d has no phase-1 winner for %s" name
                  gid (Reqprops.to_string req))
            (asked 0));
    if !free = [] then Alcotest.failf "%s: no share-free winner" name;
    (* the fresh context starts with an empty winner table over the
       explored memo, so it explores nothing and creates no group *)
    Smemo.Memo.iter_groups memo (fun g -> Hashtbl.reset g.Smemo.Memo.winners);
    let t = Sopt.Optimizer.create ~cluster:Scost.Cluster.default memo in
    List.iter
      (fun (gid, (w : Smemo.Memo.winner)) ->
        let fresh =
          Sopt.Optimizer.optimize_group t (Smemo.Memo.group memo gid)
            (Sopt.Extreq.plain t.Sopt.Optimizer.intern w.Smemo.Memo.wreq)
        in
        match (w.Smemo.Memo.wplan, fresh) with
        | None, None -> ()
        | Some p, Some q
          when Sopt.Optimizer.plan_le t p q && Sopt.Optimizer.plan_le t q p ->
            ()
        | _ ->
            Alcotest.failf "%s: group %d under %s: phase 0 and phase 1 disagree"
              name gid (Reqprops.to_string w.Smemo.Memo.wreq))
      !free
  in
  List.iter
    (fun (w : Sworkload.Builtin.t) ->
      check w.Sworkload.Builtin.name w.Sworkload.Builtin.script (w.catalog ()))
    Sworkload.Builtin.all;
  for seed = 1 to 25 do
    check
      (Printf.sprintf "random seed %d" seed)
      (Sworkload.Random_gen.generate ~seed ())
      (Sworkload.Random_gen.catalog ())
  done

(* Answering share-free groups once keeps LS2's optimizer allocation
   under a fixed bound: 29.9 M minor words when phases 1-2 re-derived
   every phase-0 answer, about 17 M since. *)
let test_optimizer_allocation () =
  let script, catalog = Thelpers.builtin "LS2" in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Cse.Pipeline.run ~catalog script));
  let words = Gc.minor_words () -. before in
  if words > 20.0e6 then
    Alcotest.failf "LS2 optimization allocated %.2f M minor words (bound 20 M)"
      (words /. 1e6)

let () =
  Alcotest.run "phase2"
    [
      ( "plans",
        [
          Alcotest.test_case "CSE never costlier (paper scripts)" `Quick
            test_cse_cheaper_on_paper_scripts;
          Alcotest.test_case "Figure 8(b) shape" `Quick test_figure8_shape;
          Alcotest.test_case "Figure 8(b) partition {B}" `Quick
            test_figure8_partitioning_on_b;
          Alcotest.test_case "single shared plan value" `Quick
            test_consumers_share_one_plan_value;
          Alcotest.test_case "compensation above spool" `Quick
            test_compensation_above_spool;
          Alcotest.test_case "phase-1 plan valid" `Quick test_phase1_plan_also_valid;
          Alcotest.test_case "S3 two LCAs" `Quick test_s3_distinct_lcas_optimized;
          Alcotest.test_case "S2 three consumers" `Quick test_s2_three_consumer_sharing;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "S1 round count" `Quick test_round_counts_s1;
          Alcotest.test_case "independent sequencing" `Quick
            test_independent_sequencing_in_pipeline;
          Alcotest.test_case "budget stops rounds" `Quick test_budget_cuts_rounds;
          Alcotest.test_case "budget partial" `Quick test_budget_partial_rounds;
          Alcotest.test_case "budget charges rounds" `Quick
            test_budget_charges_rounds;
          Alcotest.test_case "extensions neutral on S1" `Quick
            test_extensions_do_not_change_s1;
        ] );
      ( "share-free",
        [
          Alcotest.test_case "phase 0 answers every phase" `Slow
            test_share_free_premise;
          Alcotest.test_case "optimizer allocation" `Slow
            test_optimizer_allocation;
        ] );
      ( "execution",
        [
          Alcotest.test_case "all scripts match reference" `Slow
            test_execution_matches_on_all_scripts;
        ] );
    ]
