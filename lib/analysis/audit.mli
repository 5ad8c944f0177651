(** Facade of the static-analysis layer: run every analyzer pass over the
    optimizer's own data structures after optimization.

    The individual passes live in {!Memo_audit}, {!Sharing_audit},
    {!Logical_audit} and {!Plan_audit}; this module composes them over a
    full {!Cse.Pipeline.report} and offers an assertion helper for the
    harnesses (tests, bench) that audit every run. *)

(** Diagnostics of every pass over a full pipeline report: logical-DAG
    lint over the bound DAG, memo audit over the CSE memo, sharing audit
    (with the report's phase-2 candidate property sets and the final CSE
    plan), plan-DAG lint and stage-graph audit over the conventional,
    phase-1 and CSE plans.  With [deep] (default [false]) the cross-layer
    SA05x passes also run: semantic equivalence and column lineage
    ({!Equiv_audit}) plus stage-graph interference ({!Race_audit}) over
    every plan. *)
val report :
  ?deep:bool ->
  cluster:Scost.Cluster.t ->
  catalog:Relalg.Catalog.t ->
  Cse.Pipeline.report ->
  Diag.t list

(** Raise [Failure] with the pretty report when the audit of a pipeline
    report finds any error-severity diagnostic.  [deep] defaults to
    [true]: auditing harnesses get the cross-layer passes too. *)
val assert_clean :
  ?deep:bool ->
  cluster:Scost.Cluster.t ->
  catalog:Relalg.Catalog.t ->
  Cse.Pipeline.report ->
  unit
