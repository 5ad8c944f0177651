(* Configuration of the CSE optimization framework.  The three
   [use_*_groups]/[use_*_ranking] flags correspond to the Section VIII
   extensions for large scripts and can be toggled independently for the
   ablation benchmarks; [prune] switches phase 2's search-space
   reductions on or off as one. *)

type t = {
  use_independent_groups : bool; (* Section VIII-A *)
  use_group_ranking : bool; (* Section VIII-B *)
  use_property_ranking : bool; (* Section VIII-C *)
  prune : bool;
      (* phase 2's two pruning layers (see DESIGN.md, round pruning):
         drop round candidates dominated by a kept candidate with the same
         partitioning and a strictly stronger sort at equal enforcement
         cost; abort a round ([Optimizer.Above_bound]) once every
         candidate's lower bound exceeds the incumbent round cost *)
}

let default =
  {
    use_independent_groups = true;
    use_group_ranking = true;
    use_property_ranking = true;
    prune = true;
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
let no_pruning c = { c with prune = false }
