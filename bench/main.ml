(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section IX), plus the Section VIII round-count behaviour and
   measured (simulated-execution) counters.

   Sections, in output order:
     [fig6]      workload statistics (the scripts of Figure 6)
     [fig3]      shared groups, consumers and LCAs (Figure 3 annotations)
     [fig7]      estimated cost, conventional vs CSE (the headline figure)
     [fig8]      the two S1 plans, side by side (Figure 8)
     [fig4]      re-optimization rounds actually executed per script
     [fig5]      independent-shared-group round arithmetic (Section VIII-A)
     [ablation]  Section VIII extensions toggled on LS2
     [measured]  simulated execution counters (beyond the paper)
     [opt-time]  the pipeline's conventional and CSE pass walls, min of 3
                 (Section IX timing)

   Run with:  dune exec bench/main.exe
   [--json PATH] instead writes the machine-readable optimizer-perf
   baseline.  Serve throughput is measured by perfbench/ (the
   serve_hot and serve_churn workloads). *)

module Builtin = Sworkload.Builtin

let section name = Fmt.pr "@.==================== %s ====================@." name

(* paper-reported cost reductions (Figure 7), for side-by-side comparison *)
let paper_reduction =
  [ ("S1", 38.0); ("S2", 55.0); ("S3", 45.0); ("S4", 57.0); ("LS1", 21.0); ("LS2", 45.0) ]

(* Figure 7's scripts, S1-S4, LS1 and LS2, under their Section IX
   budgets; IND has its own section (fig5). *)
let workloads = List.filter (fun (w : Builtin.t) -> w.name <> "IND") Builtin.all

(* A sweep script: the default catalog and no budget. *)
let sweep name script : Builtin.t =
  { name; script; catalog = Relalg.Catalog.default; budget_seconds = None }

(* Every pipeline run in this harness is audited: the full
   static-analysis suite over the memo, sharing structure, logical DAG
   and all three plans, failing loudly if anything does not reproduce.
   The timing section opts out so the audit does not pollute the Section
   IX optimization-time measurements. *)
let run_pipeline ?(audit = true) ?(config = Cse.Config.default)
    (w : Builtin.t) =
  let budget =
    Option.map (fun s -> Sopt.Budget.create ~max_seconds:s ()) w.budget_seconds
  in
  let catalog = w.catalog () in
  let r = Cse.Pipeline.run ~config ?budget ~catalog w.script in
  if audit then
    Sanalysis.Audit.assert_clean ~cluster:Scost.Cluster.default ~catalog r;
  r

(* --- fig6: workload statistics ----------------------------------------- *)

let fig6 reports =
  section "fig6: evaluation scripts (Figure 6)";
  Fmt.pr "%-5s %10s %8s %-30s@." "name" "operators" "shared" "consumers per shared group";
  List.iter
    (fun ((w : Builtin.t), r) ->
      Fmt.pr "%-5s %10d %8d %-30s@." w.name
        (Slogical.Dag.size r.Cse.Pipeline.dag)
        (List.length r.Cse.Pipeline.shared)
        (String.concat ","
           (List.map
              (fun (s : Cse.Spool.shared) ->
                string_of_int s.Cse.Spool.initial_consumers)
              r.Cse.Pipeline.shared)))
    reports

(* --- fig3: LCA annotations ---------------------------------------------- *)

let fig3 reports =
  section "fig3: shared groups and their LCAs (Figure 3)";
  List.iter
    (fun ((w : Builtin.t), r) ->
      if List.length r.Cse.Pipeline.shared <= 4 then begin
        Fmt.pr "%s:@." w.name;
        List.iter
          (fun (s : Cse.Spool.shared) ->
            let si = r.Cse.Pipeline.shared_info in
            Fmt.pr
              "  shared group %d (spool over group %d): consumers {%s}, LCA = group %d%s@."
              s.Cse.Spool.spool s.Cse.Spool.under
              (String.concat ","
                 (List.map string_of_int
                    (Cse.Shared_info.consumers si s.Cse.Spool.spool)))
              (Option.value ~default:(-1)
                 (Cse.Shared_info.lca_of_shared si s.Cse.Spool.spool))
              (if
                 Cse.Shared_info.lca_of_shared si s.Cse.Spool.spool
                 = Some r.Cse.Pipeline.memo.Smemo.Memo.root
               then " (the root)"
               else ""))
          r.Cse.Pipeline.shared
      end)
    reports

(* --- fig7: the headline cost table -------------------------------------- *)

let fig7 reports =
  section "fig7: estimated cost, conventional vs CSE (Figure 7)";
  Fmt.pr "%-5s %14s %14s %8s %11s %12s@." "name" "conventional" "CSE" "ratio"
    "reduction" "paper (red.)";
  List.iter
    (fun ((w : Builtin.t), r) ->
      Fmt.pr "%-5s %14.5g %14.5g %7.1f%% %10.1f%% %11.0f%%@." w.name
        r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost
        (100.0 *. Cse.Pipeline.ratio r)
        (Cse.Pipeline.reduction_percent r)
        (Option.value ~default:nan (List.assoc_opt w.name paper_reduction)))
    reports

(* --- fig8: the two S1 plans --------------------------------------------- *)

let fig8 reports =
  section "fig8: plan comparison for S1 (Figure 8)";
  match
    List.find_opt (fun ((w : Builtin.t), _) -> w.name = "S1") reports
  with
  | None -> ()
  | Some (_, r) ->
      Fmt.pr "--- conventional optimization (8(a)) ---@.%a@." Sphys.Plan_pp.pp
        r.Cse.Pipeline.conventional_plan;
      Fmt.pr "--- exploiting common subexpressions (8(b)) ---@.%a@."
        Sphys.Plan_pp.pp r.Cse.Pipeline.cse_plan;
      let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
      Fmt.pr
        "the CSE plan materializes the shared subexpression %d time(s) and \
         references it %d time(s)@."
        distinct refs

(* --- fig4: rounds per script -------------------------------------------- *)

let fig4 reports =
  section "fig4: re-optimization rounds (property enforcement, Figure 4)";
  Fmt.pr "%-5s %8s %18s %22s@." "name" "rounds" "property sets" "full-product rounds";
  List.iter
    (fun ((w : Builtin.t), r) ->
      Fmt.pr "%-5s %8d %18d %22d@." w.name r.Cse.Pipeline.rounds_executed
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Cse.Pipeline.history_sizes)
        r.Cse.Pipeline.rounds_naive)
    reports

(* --- fig5: independent shared groups ------------------------------------ *)

let fig5 () =
  section "fig5: independent shared groups (Section VIII-A)";
  let w = Option.get (Builtin.find "IND") in
  let with_indep = run_pipeline w in
  let without =
    run_pipeline
      ~config:{ Cse.Config.default with Cse.Config.use_independent_groups = false }
      w
  in
  let sizes = List.map snd with_indep.Cse.Pipeline.history_sizes in
  Fmt.pr
    "two independent shared groups with %s property sets:@.\
    \  without the decomposition: %d rounds (the full product)@.\
    \  with the decomposition:    %d rounds (n1 + n2 - 1)@.\
    \  both reach the same plan cost: %.5g vs %.5g@."
    (String.concat " and " (List.map string_of_int sizes))
    without.Cse.Pipeline.rounds_executed with_indep.Cse.Pipeline.rounds_executed
    without.Cse.Pipeline.cse_cost with_indep.Cse.Pipeline.cse_cost;
  (* the paper's example: two groups with 8 properties each *)
  let eight g = (g, List.init 8 (fun _ -> Sphys.Reqprops.none)) in
  Fmt.pr "(the paper's 8-property example: %d rounds without, %d with)@."
    (Cse.Rounds.naive_total [ [ eight 5; eight 6 ] ])
    (Cse.Rounds.sequential_total [ [ eight 5 ]; [ eight 6 ] ])

(* --- ablation: Section VIII extensions on LS2 --------------------------- *)

let ablation () =
  section "ablation: Section VIII extensions on LS2 (60 s budget)";
  let w = Option.get (Builtin.find "LS2") in
  let configs =
    [
      ("all extensions", Cse.Config.default);
      ( "no independent groups (VIII-A)",
        { Cse.Config.default with Cse.Config.use_independent_groups = false } );
      ( "no group ranking (VIII-B)",
        { Cse.Config.default with Cse.Config.use_group_ranking = false } );
      ( "no property ranking (VIII-C)",
        { Cse.Config.default with Cse.Config.use_property_ranking = false } );
      ("no extensions at all", Cse.Config.no_extensions);
    ]
  in
  Fmt.pr "%-32s %14s %8s %10s@." "configuration" "CSE cost" "rounds" "opt time";
  List.iter
    (fun (label, config) ->
      let r = run_pipeline ~config w in
      Fmt.pr "%-32s %14.5g %8d %9.2fs@." label r.Cse.Pipeline.cse_cost
        r.Cse.Pipeline.rounds_executed r.Cse.Pipeline.cse_time)
    configs

(* --- budget ablation -------------------------------------------------------- *)

let ablation_budget () =
  section
    "ablation-budget: LS2 under deterministic task caps (phase 2 truncated)";
  Fmt.pr
    "With no rounds at all, forced spooling under conflicting requirements@.\
     is WORSE than conventional optimization, so the pipeline returns the@.\
     conventional plan -- phase 2's enforcement reconciliation is what@.\
     delivers the saving.  Because every round is a@.\
     complete assignment (initial properties for groups not yet varied),@.\
     even a single round captures most of the benefit; the remaining rounds@.\
     refine it.  The ranking heuristics (VIII-B/C) are neutral on this@.\
     homogeneous workload; the decomposition (VIII-A) is the extension@.\
     that matters (see 'ablation').@.@.";
  Fmt.pr "%-10s %14s %8s %20s@." "task cap" "CSE cost" "rounds" "vs conventional";
  let w = Option.get (Builtin.find "LS2") in
  List.iter
    (fun cap ->
      let budget =
        match cap with
        | Some c -> Some (Sopt.Budget.create ~max_tasks:c ())
        | None -> None
      in
      let r = Cse.Pipeline.run ?budget ~catalog:(w.catalog ()) w.script in
      Fmt.pr "%-10s %14.5g %8d %19.1f%%@."
        (match cap with Some c -> string_of_int c | None -> "none")
        r.Cse.Pipeline.cse_cost r.Cse.Pipeline.rounds_executed
        (100.0 *. Cse.Pipeline.ratio r))
    [ Some 12_000; Some 13_000; Some 14_000; Some 16_000; Some 18_000; None ]

(* --- skew-model ablation --------------------------------------------------- *)

let spool_partitioning plan =
  let part = ref None in
  Sphys.Plan.fold
    (fun () (n : Sphys.Plan.t) ->
      match n.Sphys.Plan.op with
      | Sphys.Physop.P_spool -> part := Some n.Sphys.Plan.props.Sphys.Props.part
      | _ -> ())
    () plan;
  match !part with
  | Some p -> Sphys.Partition.to_string p
  | None -> "-"

let ablation_skew () =
  section "ablation-skew: the skew-aware parallelism model (design decision 1)";
  Fmt.pr
    "Under the skew-aware model, partitioning on the single column {B} is@.\
     locally costlier than on {A,B,C} (fewer distinct keys => lower@.\
     effective parallelism), so choosing it for the shared node is a real@.\
     cost-based trade-off -- the paper's Section I premise.  With a flat@.\
     model the narrow scheme is never penalized and the choice is trivial.@.\
     The framework picks {B} in both cases; only under skew does that@.\
     decision require phase 2's global comparison.@.@.";
  Fmt.pr "%-12s %18s %14s %14s %30s@." "skew model" "spool partitioning"
    "conv cost" "CSE cost" "local penalty of {B} vs {A,B,C}";
  List.iter
    (fun (label, skew_aware) ->
      let catalog = Relalg.Catalog.default () in
      let cluster = { Scost.Cluster.default with Scost.Cluster.skew_aware } in
      let r = Cse.Pipeline.run ~cluster ~catalog Sworkload.Paper_scripts.s1 in
      (* effective parallelism of the two candidate schemes at the shared
         node (ndv(B) = 1000, ndv(A,B,C) >> machines) *)
      let m = float_of_int cluster.Scost.Cluster.machines in
      let p_narrow =
        Scost.Costmodel.key_parallelism ~skew_aware ~machines:m 1000.0
      in
      let p_wide =
        Scost.Costmodel.key_parallelism ~skew_aware ~machines:m 3.6e6
      in
      Fmt.pr "%-12s %18s %14.5g %14.5g %25.1f%%@." label
        (spool_partitioning r.Cse.Pipeline.cse_plan)
        r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost
        (100.0 *. ((p_wide /. p_narrow) -. 1.0)))
    [ ("skew-aware", true); ("flat", false) ]

(* --- sweeps beyond the paper --------------------------------------------- *)

let sweep_consumers () =
  section "sweep-consumers: saving vs number of consumers (S1/S2 family)";
  Fmt.pr "%10s %14s %14s %11s %8s@." "consumers" "conventional" "CSE" "reduction"
    "rounds";
  List.iter
    (fun k ->
      let w =
        sweep (Printf.sprintf "k=%d" k) (Sworkload.Sweeps.consumers_script ~k)
      in
      let r = run_pipeline w in
      Fmt.pr "%10d %14.5g %14.5g %10.1f%% %8d@." k
        r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost
        (Cse.Pipeline.reduction_percent r)
        r.Cse.Pipeline.rounds_executed)
    [ 1; 2; 3; 4; 5; 6 ];
  Fmt.pr
    "(k=1 has nothing shared; the saving grows with the consumer count, \
     Section IX's S1-vs-S2 observation)@."

let sweep_machines () =
  section "sweep-machines: S1 saving vs cluster size";
  Fmt.pr "%10s %14s %14s %11s@." "machines" "conventional" "CSE" "reduction";
  List.iter
    (fun m ->
      let catalog = Relalg.Catalog.default () in
      let cluster = Scost.Cluster.with_machines m Scost.Cluster.default in
      let r = Cse.Pipeline.run ~cluster ~catalog Sworkload.Paper_scripts.s1 in
      Fmt.pr "%10d %14.5g %14.5g %10.1f%%@." m r.Cse.Pipeline.conventional_cost
        r.Cse.Pipeline.cse_cost
        (Cse.Pipeline.reduction_percent r))
    [ 5; 10; 25; 50; 100; 200 ]

let sweep_depth () =
  section "sweep-depth: enforcement propagation through deep consumer chains";
  Fmt.pr "%10s %14s %14s %11s@." "depth" "conventional" "CSE" "reduction";
  List.iter
    (fun depth ->
      let w =
        sweep (Printf.sprintf "d=%d" depth)
          (Sworkload.Sweeps.chain_script ~depth)
      in
      let r = run_pipeline w in
      Fmt.pr "%10d %14.5g %14.5g %10.1f%%@." depth
        r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost
        (Cse.Pipeline.reduction_percent r))
    [ 1; 3; 6; 10 ]

(* --- measured execution counters ---------------------------------------- *)

let measured reports =
  section "measured: simulated execution (scaled data, 25 machines)";
  Fmt.pr "%-5s %12s %12s %12s %12s %9s@." "name" "shuffled(cv)" "shuffled(cse)"
    "extracted(cv)" "extracted(cse)" "spools";
  List.iter
    (fun ((w : Builtin.t), r) ->
      if w.budget_seconds = None then begin
        let catalog = w.catalog () in
        let vc =
          Sexec.Validate.check ~machines:25 catalog r.Cse.Pipeline.dag
            r.Cse.Pipeline.conventional_plan
        in
        let ve =
          Sexec.Validate.check ~machines:25 catalog r.Cse.Pipeline.dag
            r.Cse.Pipeline.cse_plan
        in
        assert (vc.Sexec.Validate.ok && ve.Sexec.Validate.ok);
        Fmt.pr "%-5s %12d %12d %12d %12d %6d/%-2d@." w.name
          vc.Sexec.Validate.counters.Sexec.Engine.rows_shuffled
          ve.Sexec.Validate.counters.Sexec.Engine.rows_shuffled
          vc.Sexec.Validate.counters.Sexec.Engine.rows_extracted
          ve.Sexec.Validate.counters.Sexec.Engine.rows_extracted
          ve.Sexec.Validate.counters.Sexec.Engine.spool_executions
          ve.Sexec.Validate.counters.Sexec.Engine.spool_reads
      end)
    reports;
  Fmt.pr "(results of every plan verified against the reference evaluator)@."

(* --- fault injection and recovery ---------------------------------------- *)

let faults reports =
  section
    "faults: deterministic fault injection and staged recovery (rate 0.3, 5 \
     seeds)";
  Fmt.pr "%-5s %7s %8s %11s %16s@." "name" "stages" "retries" "lost-parts"
    "recomputed-rows";
  List.iter
    (fun ((w : Builtin.t), r) ->
      if w.budget_seconds = None then begin
        let catalog = w.catalog () in
        let base =
          Sexec.Validate.check ~machines:25 catalog r.Cse.Pipeline.dag
            r.Cse.Pipeline.cse_plan
        in
        let retries = ref 0 and lost = ref 0 and recomputed = ref 0 in
        List.iter
          (fun seed ->
            let faults = Sexec.Faults.spec ~rate:0.3 seed in
            let v =
              Sexec.Validate.check ~faults ~machines:25 catalog
                r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan
            in
            assert v.Sexec.Validate.ok;
            assert
              (Sexec.Validate.identical_outputs base.Sexec.Validate.outputs
                 v.Sexec.Validate.outputs);
            retries := !retries + v.Sexec.Validate.counters.Sexec.Engine.retries;
            lost :=
              !lost + v.Sexec.Validate.counters.Sexec.Engine.partitions_lost;
            recomputed :=
              !recomputed
              + v.Sexec.Validate.counters.Sexec.Engine.recomputed_rows)
          [ 1; 2; 3; 4; 5 ];
        Fmt.pr "%-5s %7d %8d %11d %16d@." w.name
          base.Sexec.Validate.counters.Sexec.Engine.stages_run !retries !lost
          !recomputed
      end)
    reports;
  Fmt.pr
    "(every faulty run validated against the reference and byte-identical to \
     the fault-free run)@."

(* --- exec-time: domain-parallel stage execution --------------------------- *)

(* Measured execution wall times of the CSE plan at one worker and at
   [workers] domains, plus the modeled makespan: the workers=1 run's
   per-stage durations replayed through the scheduler's own fault-free
   wave schedule with greedy placement on N slots.  On a host with fewer
   cores than the pool has domains the measured parallel wall time
   cannot improve (the domains timeshare one core), so the model is the
   honest projection of the wave schedule's speedup — it uses real
   measured stage durations and the real dependency structure. *)
type exec_times = {
  e_stages : int;
  e_width : int;  (* max stages per depth level: available parallelism *)
  e_wall1 : float;  (* measured, workers = 1, min of 3 reps *)
  e_walln : float;  (* measured, workers = n, min of 3 reps *)
  e_busyn : float array;  (* per-worker busy seconds of the best rep at n *)
  e_model1 : float;  (* modeled makespan on 1 slot = sum of stage times *)
  e_modeln : float;  (* modeled makespan on n slots *)
}

(* Also fills the pipeline report's [exec] summary (the best workers=n
   rep), so the drift checker and the JSON report read execution figures
   from the report instead of re-running anything. *)
let exec_times ~workers (w : Builtin.t) (r : Cse.Pipeline.report) =
  let plan = r.Cse.Pipeline.cse_plan in
  let graph = Sexec.Stage.build plan in
  let batch_size = ref Sexec.Engine.default_batch_size in
  let batches = ref 0 in
  let measure wk =
    (* One engine reused across the reps: the extract cache warms on the
       first rep, so min-of-3 measures the steady state a long-running
       engine (serve mode) sees rather than paying datagen every rep. *)
    let engine = Sexec.Engine.create ~workers:wk ~machines:25 (w.catalog ()) in
    let best_wall = ref infinity
    and best_seconds = ref [||]
    and best_busy = ref [||] in
    Gc.compact ();
    for _ = 1 to 3 do
      ignore (Sexec.Engine.run engine plan);
      if engine.Sexec.Engine.last_wall < !best_wall then begin
        best_wall := engine.Sexec.Engine.last_wall;
        best_seconds := engine.Sexec.Engine.last_seconds;
        best_busy := engine.Sexec.Engine.last_busy
      end
    done;
    batch_size := engine.Sexec.Engine.batch_size;
    batches := engine.Sexec.Engine.counters.Sexec.Engine.batches;
    (!best_wall, !best_seconds, !best_busy)
  in
  let wall1, seconds, _ = measure 1 in
  let walln, _, busyn = measure workers in
  r.Cse.Pipeline.exec <-
    Some
      {
        Cse.Pipeline.workers;
        batch_size = !batch_size;
        batches = !batches;
        wall_s = walln;
        busy_s = busyn;
      };
  {
    e_stages = Sexec.Stage.size graph;
    e_width = Sexec.Stage.width graph;
    e_wall1 = wall1;
    e_walln = walln;
    e_busyn = busyn;
    e_model1 = Sexec.Scheduler.modeled_makespan ~workers:1 ~seconds graph;
    e_modeln = Sexec.Scheduler.modeled_makespan ~workers ~seconds graph;
  }

let exec_time ~workers reports =
  section
    (Printf.sprintf
       "exec-time: domain-parallel stage execution (workers=%d, CSE plan, 25 \
        machines)"
       workers);
  Fmt.pr "%-5s %7s %6s %10s %10s %11s %11s %8s@." "name" "stages" "width"
    "wall(1)" (Printf.sprintf "wall(%d)" workers) "model(1)"
    (Printf.sprintf "model(%d)" workers) "speedup";
  List.iter
    (fun ((w : Builtin.t), r) ->
      let e = exec_times ~workers w r in
      Fmt.pr "%-5s %7d %6d %9.2fms %9.2fms %10.2fms %10.2fms %7.2fx@." w.name
        e.e_stages e.e_width (1000.0 *. e.e_wall1) (1000.0 *. e.e_walln)
        (1000.0 *. e.e_model1) (1000.0 *. e.e_modeln)
        (e.e_model1 /. Float.max 1e-9 e.e_modeln))
    reports;
  Fmt.pr
    "(speedup is the modeled wave-schedule makespan ratio from measured \
     stage durations; measured wall(%d) only beats wall(1) when the host \
     has that many cores)@."
    workers

(* --- opt-time: the pipeline's own pass walls ------------------------------ *)

(* Three unaudited runs of [w]: the first run's report, with each pass
   wall the min across the runs. *)
let min_of_3 ?config (w : Builtin.t) =
  let first = run_pipeline ~audit:false ?config w in
  let rest = List.init 2 (fun _ -> run_pipeline ~audit:false ?config w) in
  let best f = List.fold_left (fun m r -> Float.min m (f r)) (f first) rest in
  {
    first with
    Cse.Pipeline.conventional_time =
      best (fun r -> r.Cse.Pipeline.conventional_time);
    cse_time = best (fun r -> r.Cse.Pipeline.cse_time);
  }

let opt_time () =
  section "opt-time: optimization time (Section IX; paper: <1 s for S1-S4, 30/60 s budgets for LS1/LS2)";
  Fmt.pr "%-5s %16s %16s@." "name" "conventional" "CSE (2 phases)";
  List.iter
    (fun (w : Builtin.t) ->
      let r = min_of_3 w in
      Fmt.pr "%-5s %15.4fs %15.4fs@." w.name r.Cse.Pipeline.conventional_time
        r.Cse.Pipeline.cse_time)
    workloads

(* --- machine-readable baseline (BENCH_opt.json) -------------------------- *)

(* One optimizer-perf record per workload (schema scopecse-bench-opt/2):
   the run report's optimization and counters sections, with the wall
   times the min of three unbudgeted reps so budget caps never saturate
   them, then the bench's own measurements: memo size, peak heap, the
   execution walls and modeled makespans, and the deep-lint time.
   [--quick] keeps the small scripts only (CI runs it on every push).
   EXPERIMENTS.md maps the /1 field names onto these. *)

let json_workloads ~quick =
  List.filter_map
    (fun (w : Builtin.t) ->
      if w.budget_seconds = None then Some w
      else if quick then None
      else Some { w with budget_seconds = None })
    Builtin.all

type opt_record = {
  rname : string;
  report : Cse.Pipeline.report;  (* min-of-3 optimization times *)
  top_heap_words : int;
  exec : exec_times;
  exec_workers : int;
  lint_deep_ms : float;
}

(* Counters and memo figures come from the first rep; every rep interns
   its requirements in its own optimizer's table, so any rep would report
   the same counts.  Times are the min across reps. *)
let bench_opt_record ~workers ~config (w : Builtin.t) =
  let report = min_of_3 ~config w in
  (* cost of the full verifier, deep cross-layer passes included, over
     the first rep's report (wall time, so environment-dependent and
     exempt from the drift check like every other timing) *)
  let lint_deep_ms =
    let t0 = Unix.gettimeofday () in
    ignore
      (Sanalysis.Audit.report ~deep:true ~cluster:Scost.Cluster.default
         ~catalog:(w.catalog ()) report);
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let exec = exec_times ~workers w report in
  {
    rname = w.name;
    report;
    top_heap_words;
    exec;
    exec_workers = workers;
    lint_deep_ms;
  }

let json_of_record (o : opt_record) =
  let r = o.report in
  let num f = Sobs.Json.Num f in
  let int i = num (float_of_int i) in
  let e = Option.get r.Cse.Pipeline.exec in
  Sobs.Json.Obj
    ((("name", Sobs.Json.Str o.rname) :: Sserve.Report.optimized r)
    @ [
        ("memo_groups", int (Smemo.Memo.size r.Cse.Pipeline.memo));
        ("memo_exprs", int (Smemo.Memo.expr_count r.Cse.Pipeline.memo));
        ("top_heap_words", int o.top_heap_words);
        (* execution: measured wall at workers=1 and workers=N, the best
           workers=N rep's busy time and utilization, its batch figures
           (the batch count is a pure function of the plan, the data and
           the batch size), and the modeled wave-schedule makespans the
           speedup figure comes from *)
        ("stages", int o.exec.e_stages);
        ("stage_width", int o.exec.e_width);
        ("exec_workers", int o.exec_workers);
        ("exec_wall_w1_s", num o.exec.e_wall1);
        ("exec_wall_wN_s", num o.exec.e_walln);
        ("exec_busy_wN_s", num (Array.fold_left ( +. ) 0.0 o.exec.e_busyn));
        ("exec_util_wN", num (Cse.Pipeline.utilization e));
        ("exec_batch_size", int e.Cse.Pipeline.batch_size);
        ("exec_batches", int e.Cse.Pipeline.batches);
        ("exec_modeled_w1_s", num o.exec.e_model1);
        ("exec_modeled_wN_s", num o.exec.e_modeln);
        ( "exec_modeled_speedup",
          num (o.exec.e_model1 /. Float.max 1e-9 o.exec.e_modeln) );
        ("lint.deep_ms", num o.lint_deep_ms);
      ])

let bench_json ~quick ~workers ~config path =
  let records =
    List.map (bench_opt_record ~workers ~config) (json_workloads ~quick)
  in
  Sobs.Flight.write_file path
    (Sobs.Json.to_string
       (Sobs.Json.Obj
          [
            ("schema", Sobs.Json.Str "scopecse-bench-opt/2");
            ("quick", Sobs.Json.Bool quick);
            ("workloads", Sobs.Json.Arr (List.map json_of_record records));
          ]));
  List.iter
    (fun o ->
      Fmt.pr "%-5s conv %.4fs  cse %.4fs  (reduction %.1f%%)@." o.rname
        o.report.Cse.Pipeline.conventional_time o.report.Cse.Pipeline.cse_time
        (Cse.Pipeline.reduction_percent o.report))
    records;
  Fmt.pr "wrote %s@." path

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  (* --no-prune: run the phase-2 search exhaustively (ISSUE 7 ablation);
     paired with the default run, bench/compare --equivalence proves the
     pruning layers never change a chosen plan's cost *)
  let config =
    if List.mem "--no-prune" argv then Cse.Config.no_pruning Cse.Config.default
    else Cse.Config.default
  in
  let workers =
    let rec find = function
      | "--workers" :: n :: _ -> ( match int_of_string_opt n with
          | Some n when n >= 1 -> n
          | _ -> 4)
      | _ :: tl -> find tl
      | [] -> 4
    in
    find argv
  in
  match argv with
  | _ :: rest when List.mem "--json" rest ->
      let path =
        let rec after = function
          | "--json" :: p :: _ when not (String.length p > 1 && p.[0] = '-') ->
              Some p
          | _ :: tl -> after tl
          | [] -> None
        in
        Option.value ~default:"BENCH_opt.json" (after rest)
      in
      bench_json ~quick ~workers ~config path
  | _ ->
  let t0 = Unix.gettimeofday () in
  let reports = List.map (fun w -> (w, run_pipeline w)) workloads in
  fig6 reports;
  fig3 reports;
  fig7 reports;
  fig8 reports;
  fig4 reports;
  fig5 ();
  ablation ();
  ablation_budget ();
  ablation_skew ();
  sweep_consumers ();
  sweep_machines ();
  sweep_depth ();
  measured reports;
  faults reports;
  exec_time ~workers reports;
  opt_time ();
  Fmt.pr "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0)
