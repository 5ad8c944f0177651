(* Facade: compose the analyzer passes over a pipeline report. *)

let report ?(deep = false) ~cluster ~catalog (r : Cse.Pipeline.report) =
  let conv = r.Cse.Pipeline.conventional_plan
  and cse = r.Cse.Pipeline.cse_plan in
  let plans = [ conv; r.Cse.Pipeline.phase1_plan; cse ] in
  let graphs = List.map Sexec.Stage.build plans in
  Logical_audit.run ~catalog ~machines:cluster.Scost.Cluster.machines
    r.Cse.Pipeline.dag
  @ Memo_audit.run ~cluster r.Cse.Pipeline.memo
  @ Sharing_audit.run ~degraded:r.Cse.Pipeline.budget_exhausted
      ~candidates:r.Cse.Pipeline.candidate_props ~plan:cse r.Cse.Pipeline.memo
  @ Prune_audit.run ~candidates:r.Cse.Pipeline.candidate_props
      r.Cse.Pipeline.pruned_props
  @ List.concat_map Plan_audit.run plans
  (* the conventional baseline shares winner subplans physically by
     design, and the phase-1 plan materializes a shared group once per
     property requirement with the same winner subplan under each
     materialization — so SA042 (unspooled physical sharing) applies to
     the final CSE plan only, and not when that plan is the conventional
     one because no sharing plan was cheaper *)
  @ List.concat
      (List.map2
         (fun (plan, expect_spooled_sharing) ->
           Stage_audit.check_graph ~expect_spooled_sharing plan)
         [ (conv, false); (r.Cse.Pipeline.phase1_plan, false); (cse, cse != conv) ]
         graphs)
  (* the costlier cross-layer passes (equivalence, lineage, interference)
     sit behind [deep] ([scopeopt lint --deep]); tests and benches run them *)
  @
  if deep then
    Equiv_audit.run ~dag:r.Cse.Pipeline.dag plans
    @ Lineage.of_memo (Lineage.create ()) r.Cse.Pipeline.memo
    @ List.concat_map Race_audit.check_graph graphs
  else []

let assert_clean ?(deep = true) ~cluster ~catalog r =
  let diags = report ~deep ~cluster ~catalog r in
  match Diag.errors diags with
  | [] -> ()
  | _ -> failwith (Fmt.str "audit failed:@.%a" Diag.pp_report diags)
