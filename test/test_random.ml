(* Whole-pipeline property tests over randomly generated scripts:
   - every plan (conventional and CSE) passes the independent checker;
   - the CSE plan never costs more than the conventional one, under any
     cost constants and budget;
   - both plans produce exactly the reference results on a simulated
     cluster;
   - shared subexpressions are materialized at most once per property
     assignment. *)

let run_seed seed =
  let script = Sworkload.Random_gen.generate ~seed ~statements:10 () in
  let catalog = Sworkload.Random_gen.catalog () in
  let r = Cse.Pipeline.run ~catalog script in
  (script, catalog, r)

let test_plans_valid () =
  for seed = 1 to 35 do
    let script, _, r = run_seed seed in
    (try
       Thelpers.assert_valid_plan "conventional" r.Cse.Pipeline.conventional_plan;
       Thelpers.assert_valid_plan "cse" r.Cse.Pipeline.cse_plan
     with e ->
       Alcotest.failf "seed %d: %s\n%s" seed (Printexc.to_string e) script)
  done

let test_cse_never_costlier () =
  for seed = 1 to 35 do
    let script, _, r = run_seed seed in
    if r.Cse.Pipeline.cse_cost > r.Cse.Pipeline.conventional_cost then
      Alcotest.failf "seed %d: cse %.6g > conventional %.6g\n%s" seed
        r.Cse.Pipeline.cse_cost r.Cse.Pipeline.conventional_cost script
  done

(* Seed 10 at 40 statements: phase 2 spools a join output estimated at
   2.16e11 rows, and writing that spool costs more than recomputing it
   per consumer (CSE 4.2091e11 against conventional 2.9011e11 while the
   two plans came from separate memos).  The pipeline must return the
   conventional plan, audit-clean and with the reference outputs. *)
let test_seed10_40_statements () =
  let script = Sworkload.Random_gen.generate ~seed:10 ~statements:40 () in
  let catalog = Sworkload.Random_gen.catalog () in
  let r = Cse.Pipeline.run ~catalog script in
  Alcotest.(check bool)
    (Fmt.str "cse %.6g <= conventional %.6g" r.Cse.Pipeline.cse_cost
       r.Cse.Pipeline.conventional_cost)
    true
    (r.Cse.Pipeline.cse_cost <= r.Cse.Pipeline.conventional_cost);
  let diags =
    Sanalysis.Audit.report ~deep:true ~cluster:Scost.Cluster.default ~catalog r
  in
  if Sanalysis.Diag.exit_code ~fail_on:Sanalysis.Diag.Warning diags <> 0 then
    Alcotest.failf "audit not clean:@.%a" Sanalysis.Diag.pp_report diags;
  let v =
    Sexec.Validate.check ~machines:7 catalog r.Cse.Pipeline.dag
      r.Cse.Pipeline.cse_plan
  in
  if not v.Sexec.Validate.ok then
    Alcotest.failf "outputs differ from the reference: %s"
      (String.concat "; " v.Sexec.Validate.mismatches)

(* Cost constants drawn around the defaults (each scaled by 2^k, k in
   [-3, 3]), with the spool prices inverted in about half the cases so
   that rescanning a spool costs more than extracting the raw input and
   spooling loses; and task budgets that cut phase 2 anywhere. *)
let cluster_gen =
  let open QCheck.Gen in
  let scale = map (fun k -> 2.0 ** float_of_int k) (int_range (-3) 3) in
  let* machines = int_range 1 40 in
  let* f = array_repeat 10 scale in
  let* inverted = bool in
  let* skew_aware = bool in
  let d = Scost.Cluster.default in
  let read_byte = d.Scost.Cluster.read_byte *. f.(1) in
  return
    {
      Scost.Cluster.machines;
      net_byte = d.Scost.Cluster.net_byte *. f.(0);
      read_byte;
      write_byte = d.Scost.Cluster.write_byte *. f.(2);
      spool_write_byte =
        (if inverted then read_byte *. 8.0
         else d.Scost.Cluster.spool_write_byte *. f.(3));
      spool_read_byte =
        (if inverted then read_byte *. 4.0
         else d.Scost.Cluster.spool_read_byte *. f.(4));
      cpu_row = d.Scost.Cluster.cpu_row *. f.(5);
      agg_row = d.Scost.Cluster.agg_row *. f.(6);
      sort_row = d.Scost.Cluster.sort_row *. f.(7);
      join_row = d.Scost.Cluster.join_row *. f.(8);
      hash_join_row = d.Scost.Cluster.hash_join_row *. f.(9);
      merge_row = d.Scost.Cluster.merge_row;
      partition_overhead = d.Scost.Cluster.partition_overhead;
      skew_aware;
    }

let case_gen =
  QCheck.Gen.(
    quad (int_range 1 1000) (int_range 4 8) cluster_gen
      (opt (int_range 1 2000)))

let print_case (seed, statements, (c : Scost.Cluster.t), max_tasks) =
  Fmt.str
    "seed=%d statements=%d machines=%d spool_write=%g spool_read=%g \
     read=%g skew_aware=%b max_tasks=%s"
    seed statements c.Scost.Cluster.machines c.Scost.Cluster.spool_write_byte
    c.Scost.Cluster.spool_read_byte c.Scost.Cluster.read_byte
    c.Scost.Cluster.skew_aware
    (Option.fold ~none:"none" ~some:string_of_int max_tasks)

let prop_cse_never_costlier =
  Thelpers.qtest ~count:40 "cse <= conventional under any constants"
    (QCheck.make ~print:print_case case_gen)
    (fun (seed, statements, cluster, max_tasks) ->
      let script = Sworkload.Random_gen.generate ~seed ~statements () in
      let budget =
        Option.map (fun m -> Sopt.Budget.create ~max_tasks:m ()) max_tasks
      in
      let r =
        Cse.Pipeline.run ?budget ~cluster
          ~catalog:(Sworkload.Random_gen.catalog ())
          script
      in
      r.Cse.Pipeline.cse_cost <= r.Cse.Pipeline.conventional_cost)

let test_execution_matches () =
  for seed = 1 to 25 do
    let script, catalog, r = run_seed seed in
    List.iter
      (fun (label, plan) ->
        let v = Sexec.Validate.check ~machines:7 catalog r.Cse.Pipeline.dag plan in
        if not v.Sexec.Validate.ok then
          Alcotest.failf "seed %d (%s): %s\n%s" seed label
            (String.concat "; " v.Sexec.Validate.mismatches)
            script)
      [
        ("conventional", r.Cse.Pipeline.conventional_plan);
        ("cse", r.Cse.Pipeline.cse_plan);
      ]
  done

let test_sharing_materializes_once () =
  for seed = 1 to 25 do
    let script, _, r = run_seed seed in
    let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
    let n_shared = List.length r.Cse.Pipeline.shared in
    (* at most one materialization per shared group; every shared group
       that survives into the final plan has >= 2 references *)
    if distinct > n_shared then
      Alcotest.failf "seed %d: %d materializations for %d shared groups\n%s"
        seed distinct n_shared script;
    if refs < distinct then Alcotest.failf "seed %d: fewer refs than spools" seed
  done

let test_phase2_no_worse_than_phase1 () =
  for seed = 1 to 25 do
    let _, _, r = run_seed seed in
    let p1 = Scost.Dagcost.cost Scost.Cluster.default r.Cse.Pipeline.phase1_plan in
    if r.Cse.Pipeline.cse_cost > p1 +. 1e-6 then
      Alcotest.failf "seed %d: final %.6g worse than phase 1 %.6g" seed
        r.Cse.Pipeline.cse_cost p1
  done

let test_extension_configs_agree () =
  (* all Section VIII extension combinations produce valid plans; none may
     beat exhaustive enumeration (they only reorder / prune rounds) *)
  let configs =
    [
      Cse.Config.default;
      Cse.Config.no_extensions;
      { Cse.Config.default with Cse.Config.use_independent_groups = false };
      { Cse.Config.default with Cse.Config.use_group_ranking = false };
      { Cse.Config.default with Cse.Config.use_property_ranking = false };
    ]
  in
  for seed = 1 to 8 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:8 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let costs =
      List.map
        (fun config ->
          let r = Cse.Pipeline.run ~config ~catalog script in
          Thelpers.assert_valid_plan "config variant" r.Cse.Pipeline.cse_plan;
          r.Cse.Pipeline.cse_cost)
        configs
    in
    (* without a budget every configuration explores all its rounds;
       the no-extensions product space subsumes the sequential one only on
       independent groups, so allow equal-or-better for the default *)
    match costs with
    | default_cost :: _ ->
        List.iter
          (fun c ->
            if default_cost > c *. 1.02 then
              Alcotest.failf "seed %d: default config much worse (%g vs %g)"
                seed default_cost c)
          costs
    | [] -> ()
  done

let () =
  Alcotest.run "random-pipeline"
    [
      ( "properties",
        [
          Alcotest.test_case "plans valid" `Slow test_plans_valid;
          Alcotest.test_case "cse never costlier" `Slow test_cse_never_costlier;
          Alcotest.test_case "execution matches" `Slow test_execution_matches;
          Alcotest.test_case "single materialization" `Slow
            test_sharing_materializes_once;
          Alcotest.test_case "phase 2 monotone" `Slow test_phase2_no_worse_than_phase1;
          Alcotest.test_case "extension configs" `Slow test_extension_configs_agree;
          Alcotest.test_case "seed 10, 40 statements" `Slow
            test_seed10_40_statements;
          prop_cse_never_costlier;
        ] );
    ]
