(* Large-script optimization (Section VIII): take the builtin LS2, a
   generated script with the structure of the paper's LS2 workload (1034
   operators, 17 shared groups), and compare round counts and results with
   the large-script extensions on and off, under its Section IX budget.

   Run with:  dune exec examples/large_script.exe *)

let () =
  let w = Option.get (Sworkload.Builtin.find "LS2") in
  Fmt.pr "generated %s: %d shared modules, script of %d lines@." w.name
    (List.length
       Sworkload.Large_gen.ls2_spec.Sworkload.Large_gen.shared_consumers)
    (List.length (String.split_on_char '\n' w.script));

  let run ~label config =
    let budget =
      Option.map (fun s -> Sopt.Budget.create ~max_seconds:s ()) w.budget_seconds
    in
    let r =
      Cse.Pipeline.run ~config ?budget ~catalog:(w.catalog ()) w.script
    in
    Fmt.pr
      "%-18s cost %.5g (%.1f%% of conventional), %d rounds executed — full \
       product would need %d; optimization took %.2f s@."
      label r.Cse.Pipeline.cse_cost
      (100.0 *. Cse.Pipeline.ratio r)
      r.Cse.Pipeline.rounds_executed r.Cse.Pipeline.rounds_naive
      r.Cse.Pipeline.cse_time;
    r
  in
  let with_ext = run ~label:"all extensions" Cse.Config.default in
  let no_indep =
    run ~label:"no independence"
      { Cse.Config.default with Cse.Config.use_independent_groups = false }
  in
  let no_rank =
    run ~label:"no ranking"
      {
        Cse.Config.default with
        Cse.Config.use_group_ranking = false;
        use_property_ranking = false;
      }
  in
  Fmt.pr
    "@.With independent-group decomposition the optimizer needs %d rounds \
     instead of enumerating %d combinations; ranking spends the budget on \
     the most promising rounds first (costs: %.5g / %.5g / %.5g).@."
    with_ext.Cse.Pipeline.rounds_executed with_ext.Cse.Pipeline.rounds_naive
    with_ext.Cse.Pipeline.cse_cost no_indep.Cse.Pipeline.cse_cost
    no_rank.Cse.Pipeline.cse_cost
