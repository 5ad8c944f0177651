(* Large-script optimization (Section VIII): take the builtin LS2, a
   generated script with the structure of the paper's LS2 workload (1034
   operators, 17 shared groups), and compare round counts and results with
   the large-script extensions on and off.  Every run gets the bench
   ablation's deterministic cap of 40 000 tasks (each phase-2 round counts
   as one): without the independent-group decomposition the round space
   is the full product, and the cap is what ends its enumeration.

   Run with:  dune exec examples/large_script.exe *)

let max_tasks = 40_000

let () =
  let w = Option.get (Sworkload.Builtin.find "LS2") in
  Fmt.pr "generated %s: %d shared modules, script of %d lines@." w.name
    (List.length
       Sworkload.Large_gen.ls2_spec.Sworkload.Large_gen.shared_consumers)
    (List.length (String.split_on_char '\n' w.script));
  List.iter
    (fun (label, config) ->
      let budget = Sopt.Budget.create ~max_tasks () in
      let r =
        Cse.Pipeline.run ~config ~budget ~catalog:(w.catalog ()) w.script
      in
      Fmt.pr
        "%s:@.  cse_cost %.5g  cost_ratio %.3f  rounds_executed %d  \
         rounds_aborted_bound %d  rounds_naive %d  budget_exhausted %b  \
         cse_time_s %.2f@."
        label r.Cse.Pipeline.cse_cost (Cse.Pipeline.ratio r)
        r.Cse.Pipeline.rounds_executed r.Cse.Pipeline.rounds_aborted_bound
        r.Cse.Pipeline.rounds_naive r.Cse.Pipeline.budget_exhausted
        r.Cse.Pipeline.cse_time)
    [
      ("all extensions", Cse.Config.default);
      ( "no independence",
        { Cse.Config.default with Cse.Config.use_independent_groups = false } );
      ( "no ranking",
        {
          Cse.Config.default with
          Cse.Config.use_group_ranking = false;
          use_property_ranking = false;
        } );
    ]
