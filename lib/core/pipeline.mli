(** End-to-end facade: script text in, optimized plans out.

    Builds one memo, inserts spools (Algorithm 1) and runs one optimizer
    context over it in three passes ({!Phase2.optimize}): {e conventional}
    — every spool bypassed, so a shared relation executes once per
    consumer (Figure 8(a)); then {e CSE} — phase 1 with history recording,
    Algorithm 3, and the phase-2 re-optimization (Figure 8(b)).  The CSE
    plan is the cheapest of the three passes' plans, so [cse_cost <=
    conventional_cost]. *)

(** Execution summary handed over by callers that run plans (this module
    does not depend on the executor): domain-pool width, execution wall
    seconds, and per-worker busy seconds. *)
type exec_summary = {
  workers : int;
  batch_size : int;  (** executor batch granularity (max rows per batch) *)
  batches : int;  (** batches across the run's committed stage outputs *)
  wall_s : float;
  busy_s : float array;
}

(** Fraction of the pool's wall-time capacity spent inside tasks, in
    [0, 1]: total busy seconds over [wall_s * #workers]. *)
val utilization : exec_summary -> float

type report = {
  dag : Slogical.Dag.t;
  conventional_plan : Sphys.Plan.t;
  conventional_cost : float;
  conventional_time : float;  (** phase-0 wall seconds *)
  conventional_tasks : int;  (** phase-0 tasks *)
  cse_plan : Sphys.Plan.t;
  cse_cost : float;
  cse_time : float;  (** phases 1-2 wall seconds *)
  cse_tasks : int;  (** phases 1-2 tasks *)
  budget_exhausted : bool;
      (** the optimization budget ran out: the CSE plan may be the phase-1
          shape, materializing a shared group once per distinct property
          requirement (the Figure 8(a) baseline) *)
  phase1_plan : Sphys.Plan.t;
  memo : Smemo.Memo.t;
      (** the one memo (with spools) all three passes ran over *)
  shared : Spool.shared list;
  lcas : (int * int) list;  (** shared group -> its LCA group *)
  rounds_executed : int;
  rounds_naive : int;
  rounds_sequential : int;
  rounds_pruned : int;
      (** sequential rounds removed by dominance filtering of candidates *)
  rounds_aborted_bound : int;
      (** rounds cut short by the branch-and-bound incumbent check *)
  phase2_winner_reuse_hits : int;
      (** winner-cache hits during phase 2: cross-round reuse, because
          {!Phase2}'s [child_extreq] restricts each child's enforcement
          map to the shared groups below it, so rounds that differ only
          in other groups' pins ask for the same key; and hits on the
          phase-0 winners of share-free groups *)
  history_sizes : (int * int) list;  (** shared group -> #property sets *)
  candidate_props : (int * Sphys.Reqprops.t list) list;
      (** shared group -> phase-2 candidate property sets after dominance
          filtering, in round order *)
  pruned_props : (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list;
      (** shared group -> (dropped candidate, kept dominator) pairs; the
          SA060 audit re-verifies each pair against the dominance rule of
          {!History.candidates} *)
  shared_info : Shared_info.t;
  counters : (string * int) list;
      (** this run's counts ({!Sopt.Optimizer.counters}) over all three
          passes of its one optimizer context: optimizer tasks, winner
          hits/misses, rule firings, intern hits/misses.  Nonzero
          entries only, sorted by name.  Execution counts are the
          executor's ({!Sexec.Engine.named_counters}), not part of this
          list. *)
  mutable exec : exec_summary option;
      (** execution summary of the CSE plan, built by
          [Sserve.Engine.exec_summary] and filled in by two callers that
          run it: the bench harness (for [bench/compare]'s utilization
          and wall checks) and the serve engine (on each session's
          report); [None] when the plans were only optimized *)
}

(** Named counters as one "counters: name=value; ..." line. *)
val pp_counters : (string * int) list Fmt.t

(** One "exec: workers=N wall=..ms busy=[..] util=..%" line. *)
val pp_exec : exec_summary Fmt.t

(** Narrative of the four optimization steps (Figure 2 of the paper). *)
val pp_steps : report Fmt.t

(** [cse_cost / conventional_cost]. *)
val ratio : report -> float

(** Cost reduction in percent, as reported in Figure 7. *)
val reduction_percent : report -> float

exception No_plan of string

(** Parse, bind and optimize a script both ways.
    Raises [Slang.Parser.Error], [Slang.Lexer.Error], [Slogical.Binder.Error]
    on bad input and {!No_plan} if optimization fails. *)
val run :
  ?config:Config.t ->
  ?budget:Sopt.Budget.t ->
  ?cluster:Scost.Cluster.t ->
  catalog:Relalg.Catalog.t ->
  string ->
  report
