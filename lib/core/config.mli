(** Configuration of the CSE optimization framework; the
    [use_*_groups]/[use_*_ranking] flags gate the Section VIII
    large-script extensions for ablation. *)

type t = {
  use_independent_groups : bool;  (** Section VIII-A *)
  use_group_ranking : bool;  (** Section VIII-B *)
  use_property_ranking : bool;  (** Section VIII-C *)
  prune : bool;
      (** phase 2's two pruning layers, on or off together: dominance
          pruning of round candidates (same partitioning, strictly
          stronger sort, equal enforcement cost) and the branch-and-bound
          round abort ({!Sopt.Optimizer.Above_bound}) *)
}

(** Everything on. *)
val default : t

(** The base framework with all Section VIII extensions disabled. *)
val no_extensions : t

(** [no_pruning c]: [c] with [prune] off — the exhaustive enumeration
    the [--no-prune] ablation runs.  Chosen plans must be byte-identical
    to the pruned run. *)
val no_pruning : t -> t
