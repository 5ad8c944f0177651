(** The re-optimization framework (Algorithms 4 and 5), realized as an
    extension of the generic engine:

    - phase 1 records the property history of shared groups (Section V);
    - the enforcement map propagates downwards, pruned to paths that still
      lead to an enforced shared group (Algorithm 5);
    - at a shared group with a pinned property set, one base plan is
      optimized under the pinned properties — every consumer shares the
      identical materialization — and per-consumer enforcers compensate on
      top (the Sort above the spool in Figure 8(b));
    - at an LCA, one round per property combination runs and the cheapest
      result is kept, subject to the budget (Section VIII controls
      enumeration). *)

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
  mutable phase2_winner_reuse_hits : int;
      (** winner-cache hits during phase 2 (cross-round reuse) *)
  mutable pruned_props : (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list;
      (** shared group -> (dropped, kept dominator) pairs (SA060 audit) *)
  mutable lca_sites : int;
}

(** The computed shared-group information; raises before phase 2. *)
val shared_info : state -> Shared_info.t

type outcome = {
  plan : Sphys.Plan.t option;  (** best of both phases *)
  phase1_plan : Sphys.Plan.t option;
  state : state;
  ctx : Sopt.Optimizer.t;
      (** the context both phases ran in: its budget and counts *)
}

(** Run both optimization phases over a memo already prepared by
    {!Spool.identify}. *)
val optimize :
  ?config:Config.t ->
  ?budget:Sopt.Budget.t ->
  ?observe:(Sphys.Reqprops.t -> Sphys.Plan.t -> bool -> unit) ->
  cluster:Scost.Cluster.t ->
  Smemo.Memo.t ->
  outcome
