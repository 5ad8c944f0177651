(** Configuration of the CSE optimization framework; the [use_*] flags gate
    the Section VIII large-script extensions for ablation. *)

type t = {
  use_fingerprints : bool;
      (** merge structurally equal subexpressions (Algorithm 1, lines
          2-11); explicit sharing is always detected *)
  use_independent_groups : bool;  (** Section VIII-A *)
  use_group_ranking : bool;  (** Section VIII-B *)
  use_property_ranking : bool;  (** Section VIII-C *)
  use_dominance_pruning : bool;
      (** drop round candidates dominated by a kept candidate with the
          same partitioning and a strictly stronger sort at equal
          enforcement cost *)
  use_round_bound : bool;
      (** branch-and-bound early exit: abort a round once its accumulated
          lower bound exceeds the incumbent round cost *)
  use_slice_reuse : bool;
      (** key pinned-shared-group winners on the enforcement slice visible
          below the group (cross-round winner reuse) *)
}

(** Everything on. *)
val default : t

(** The base framework with all Section VIII extensions disabled. *)
val no_extensions : t

(** [no_pruning c]: [c] with every phase-2 pruning layer disabled — the
    exhaustive enumeration the [--no-prune] ablation runs.  Chosen plans
    must be byte-identical to the pruned run. *)
val no_pruning : t -> t
