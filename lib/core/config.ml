(* Configuration of the CSE optimization framework.  The three [use_*]
   flags correspond to the Section VIII extensions for large scripts and
   can be toggled independently for the ablation benchmarks. *)

type t = {
  use_fingerprints : bool;
      (* merge structurally equal subexpressions (Algorithm 1, lines 2-11);
         explicit sharing is always detected *)
  use_independent_groups : bool; (* Section VIII-A *)
  use_group_ranking : bool; (* Section VIII-B *)
  use_property_ranking : bool; (* Section VIII-C *)
  use_dominance_pruning : bool;
      (* drop round candidates dominated by a kept candidate with the same
         partitioning and a strictly stronger sort at equal enforcement
         cost (see DESIGN.md, round pruning) *)
  use_round_bound : bool;
      (* branch-and-bound early exit: abort a re-optimization round once
         its accumulated lower bound exceeds the incumbent round cost *)
  use_slice_reuse : bool;
      (* key pinned-shared-group winners on the enforcement slice visible
         below the group, so unrelated assignment changes between rounds
         still hit the winner cache *)
}

let default =
  {
    use_fingerprints = true;
    use_independent_groups = true;
    use_group_ranking = true;
    use_property_ranking = true;
    use_dominance_pruning = true;
    use_round_bound = true;
    use_slice_reuse = true;
  }

(* Base framework with every large-script extension disabled. *)
let no_extensions =
  {
    default with
    use_independent_groups = false;
    use_group_ranking = false;
    use_property_ranking = false;
  }

(* Exhaustive phase-2 enumeration: every pruning layer off (the --no-prune
   ablation).  Chosen plans must be byte-identical to [default]. *)
let no_pruning c =
  {
    c with
    use_dominance_pruning = false;
    use_round_bound = false;
    use_slice_reuse = false;
  }
