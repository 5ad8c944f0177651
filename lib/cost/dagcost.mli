(** DAG-aware plan costing.

    The cost of a plan sharing spooled subexpressions counts each
    materialization once and charges every consumer a read; this is the
    only cost a plan has, and the search compares candidates on
    {!cached_cost}. Consumers share a materialization exactly when they
    reference the {e same} plan value (winner memoization guarantees this
    for equal pinned properties); a physically different plan for the same
    group is a second materialization and pays in full. On a spool-free
    plan the cost is the tree total of the operator costs. *)

val cost : Cluster.t -> Sphys.Plan.t -> float

(** The region closure: every added plan pays its region ([Plan.sbase])
    and a read per spool reference, and each distinct spool value any
    added plan meets pays its production region once. *)
type acc

val create : Cluster.t -> acc
val add : acc -> Sphys.Plan.t -> unit
val sum : acc -> float

(** One accumulator over one plan: O(#spool references) instead of a DAG
    walk. Bit-for-bit equal to {!cost} on spool-free plans, equal up to
    float summation order otherwise. *)
val cached_cost : Cluster.t -> Sphys.Plan.t -> float

(** [(distinct materializations, total spool references)]. *)
val spool_counts : Sphys.Plan.t -> int * int
