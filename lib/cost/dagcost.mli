(** DAG-aware plan costing.

    The cost of a plan sharing spooled subexpressions counts each
    materialization once and charges every consumer a read; the search
    compares candidates on {!cached_cost}. Consumers share a
    materialization exactly when they reference the {e same} plan value
    (winner memoization guarantees this for equal pinned properties); a
    physically different plan for the same group is a second
    materialization and pays in full. Coincides with the tree-wise cost
    on spool-free plans. *)

val cost : Cluster.t -> Sphys.Plan.t -> float

(** Same deduplicated accounting served from the region summaries cached
    at plan construction ([Plan.sbase]/[Plan.srefs]): O(#spool references)
    per call instead of a full DAG walk. Bit-for-bit equal to {!cost} on
    spool-free plans and equal up to float summation order otherwise; the
    SA034 plan lint cross-checks the cached summaries. This is the variant
    the optimizer uses for candidate comparisons. *)
val cached_cost : Cluster.t -> Sphys.Plan.t -> float

(** [(distinct materializations, total spool references)]. *)
val spool_counts : Sphys.Plan.t -> int * int
