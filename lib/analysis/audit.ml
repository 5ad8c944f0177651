(* Facade: compose the analyzer passes over a pipeline report. *)

(* The deep (cross-layer) passes: semantic equivalence, lineage and
   interference over every plan the pipeline produced.  Costlier than the
   per-layer shape audits, so they sit behind [deep]
   ([scopeopt lint --deep]); tests and benches always run them.  [graphs]
   are the stage graphs of the conventional, phase-1 and CSE plans,
   already built for the stage audit. *)
let deep_report (r : Cse.Pipeline.report) (g_conv, g_phase1, g_cse) =
  let dag = r.Cse.Pipeline.dag in
  Equiv_audit.run ~dag ~plan:r.Cse.Pipeline.conventional_plan
  @ Equiv_audit.run ~dag ~plan:r.Cse.Pipeline.phase1_plan
  @ Equiv_audit.run ~dag ~plan:r.Cse.Pipeline.cse_plan
  @ Equiv_audit.memo_lineage r.Cse.Pipeline.memo
  @ Race_audit.check_graph g_conv
  @ Race_audit.check_graph g_phase1
  @ Race_audit.check_graph g_cse

let report ?(deep = false) ~cluster ~catalog (r : Cse.Pipeline.report) =
  let machines = cluster.Scost.Cluster.machines in
  let conv = r.Cse.Pipeline.conventional_plan
  and phase1 = r.Cse.Pipeline.phase1_plan
  and cse = r.Cse.Pipeline.cse_plan in
  let ((g_conv, g_phase1, g_cse) as graphs) =
    (Sexec.Stage.build conv, Sexec.Stage.build phase1, Sexec.Stage.build cse)
  in
  Logical_audit.run ~catalog ~machines r.Cse.Pipeline.dag
  @ Memo_audit.run ~cluster r.Cse.Pipeline.memo
  @ Sharing_audit.run ~degraded:r.Cse.Pipeline.budget_exhausted
      ~candidates:r.Cse.Pipeline.candidate_props ~plan:cse r.Cse.Pipeline.memo
  @ Prune_audit.run ~candidates:r.Cse.Pipeline.candidate_props
      r.Cse.Pipeline.pruned_props
  @ Plan_audit.run conv @ Plan_audit.run phase1 @ Plan_audit.run cse
  (* the conventional baseline shares winner subplans physically by
     design, and the phase-1 plan materializes a shared group once per
     property requirement with the same winner subplan under each
     materialization — so SA042 (unspooled physical sharing) applies to
     the final CSE plan only, and not when that plan is the conventional
     one because no sharing plan was cheaper *)
  @ Stage_audit.check_graph ~expect_spooled_sharing:false conv g_conv
  @ Stage_audit.check_graph ~expect_spooled_sharing:false phase1 g_phase1
  @ Stage_audit.check_graph ~expect_spooled_sharing:(cse != conv) cse g_cse
  @ if deep then deep_report r graphs else []

let assert_clean ?(deep = true) ~cluster ~catalog r =
  let diags = report ~deep ~cluster ~catalog r in
  match Diag.errors diags with
  | [] -> ()
  | _ -> failwith (Fmt.str "audit failed:@.%a" Diag.pp_report diags)
