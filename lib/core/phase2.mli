(** The re-optimization framework (Algorithms 4 and 5), realized as an
    extension of the generic engine, which runs three passes over one
    memo with spools:

    - phase 0 is the conventional pass: every shared (spool) group is
      answered with its child's winner under the same requirement, so a
      shared relation is computed once per consumer (Figure 8(a));
    - a group with no shared group below it answers phases 1-2 with its
      phase-0 winner;
    - phase 1 records the property history of shared groups (Section V);
    - the enforcement map propagates downwards, pruned to paths that still
      lead to an enforced shared group (Algorithm 5);
    - at a shared group with a pinned property set, one base plan is
      optimized under the pinned properties — every consumer shares the
      identical materialization — and per-consumer enforcers compensate on
      top (the Sort above the spool in Figure 8(b));
    - at an LCA, {!Rounds.search} picks the property combinations (Section
      VIII orders them, the budget cuts them off) and hands each to one
      probe, which re-optimizes the LCA under it; the cheapest result is
      kept.

    The result is the cheapest of the three passes' plans, so the CSE plan
    never costs more than the conventional one. *)

type state = {
  config : Config.t;
  history : History.t;
  mutable si : Shared_info.t option;
  mutable rounds_executed : int;
  mutable rounds_naive : int;  (** full-product round count (ablation) *)
  mutable rounds_sequential : int;  (** VIII-A round count, before pruning *)
  mutable rounds_pruned : int;
      (** sequential rounds removed by dominance filtering *)
  mutable rounds_aborted_bound : int;
      (** rounds cut short by the branch-and-bound incumbent check *)
  mutable pruned_props : (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list;
      (** shared group -> (dropped, kept dominator) pairs (SA060 audit) *)
}

(** The computed shared-group information; raises before phase 1. *)
val shared_info : state -> Shared_info.t

type outcome = {
  plan : Sphys.Plan.t option;
      (** the cheapest of the three passes' plans; a later pass wins ties *)
  conventional_plan : Sphys.Plan.t option;  (** phase 0 *)
  phase1_plan : Sphys.Plan.t option;
  conventional_time : float;  (** phase-0 wall seconds *)
  cse_time : float;  (** phases 1-2 wall seconds, Algorithm 3 included *)
  conventional_tasks : int;  (** phase-0 tasks *)
  phase2_winner_hits : int;  (** winner-cache hits in phase 2 *)
  state : state;
  ctx : Sopt.Optimizer.t;
      (** the context all three passes ran in: its budget and counts *)
}

(** Run the conventional pass and both CSE phases over a memo already
    prepared by {!Spool.identify}.  The budget bounds phases 1-2 only. *)
val optimize :
  ?config:Config.t ->
  ?budget:Sopt.Budget.t ->
  ?observe:(Sphys.Reqprops.t -> Sphys.Plan.t -> bool -> unit) ->
  cluster:Scost.Cluster.t ->
  Smemo.Memo.t ->
  outcome
