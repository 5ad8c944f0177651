(** Plan-DAG lint.

    Generalizes the tree-oriented {!Sphys.Plan_check} to the shared-plan
    DAG: every {e distinct} node (by physical identity) is checked exactly
    once, so shared spool subplans referenced by several consumers are
    neither skipped nor multiply reported. Adds DAG-level bookkeeping
    checks: finite non-negative operator costs (SA032), spool group-id
    presence (SA033) and reproducible region cost summaries (SA034). *)

(** Run the lint over every distinct node of the plan DAG. *)
val run : Sphys.Plan.t -> Diag.t list
