(** The Cascades-style optimization engine (Algorithms 2 and 5).

    The winner lookup memoizes one winner per (phase, extended
    requirement).  Phase 0 is the conventional pass, phases 1 and 2 the
    CSE passes; the phase is part of the winner key, so the passes share
    one memo without sharing winners, except at a [share_free] group.
    The CSE framework extends the engine through two hooks:
    enforcement-map propagation to children (Algorithm 5), and
    interception at shared and LCA groups (phase-0 spool bypass, phase-1
    history recording, Algorithm 4 rounds). *)

(** An enforcer alternative of a group under one requirement
    ({!Enforcers.alternatives}), with its interned inner requirement and
    the verdict of {!Sphys.Plan_check.static_ok} over the group's schema. *)
type enforcer = { eop : Sphys.Physop.t; inner : Extreq.t; estatic : bool }

type t = {
  memo : Smemo.Memo.t;
  cluster : Scost.Cluster.t;
  budget : Budget.t;
      (** ticked once per task in phases 1-2: the conventional pass
          (phase 0) is never truncated *)
  mutable phase : int;  (** 0 conventional, 1 or 2 CSE; 1 at creation *)
  mutable tasks : int;  (** winner-cache misses, in every phase *)
  mutable winner_hits : int;  (** winner-cache lookups that hit *)
  mutable rule_firings : int;  (** exploration rules applied *)
  mutable share_free : int -> bool;
      (** groups, by id, whose winners every phase shares (keyed without
          the phase); none at creation *)
  ext : ext;
  intern : Intern.t;
      (** this run's requirement ids; dropped with the run *)
  observe : (Sphys.Reqprops.t -> Sphys.Plan.t -> bool -> unit) option;
      (** sees every candidate {!valid_candidate} vets, with its verdict *)
  cache : cache;
}

(** The alternatives of each (group, requirement id) that phase 2 asks
    for more than once. *)
and cache

and ext = {
  child_extreq :
    t -> child:Smemo.Memo.group -> Extreq.t -> Extreq.t -> Extreq.t;
      (** Algorithm 5, lines 9-17: the child's extended requirement from
          the conventional DetChildProp result (unenforced) and the
          parent's map *)
  intercept : t -> Smemo.Memo.group -> Extreq.t -> Sphys.Plan.t option option;
      (** Algorithm 4, lines 4-12: [Some result] bypasses the default
          optimization (shared groups and LCA rounds); it may call
          {!optimize_group} and {!log_phys_opt} itself *)
}

val create :
  ?ext:ext ->
  ?budget:Budget.t ->
  ?observe:(Sphys.Reqprops.t -> Sphys.Plan.t -> bool -> unit) ->
  cluster:Scost.Cluster.t ->
  Smemo.Memo.t ->
  t

(** This context's counts so far, by name: [optimizer.tasks] and
    [optimizer.winner_misses] (both the [tasks] field, one per
    winner-cache miss), [optimizer.winner_hits],
    [optimizer.rule_firings], [intern.hits] and [intern.misses]; zeros
    included. *)
val counters : t -> (string * int) list

(** Build a costed plan node for an operator over child plans in a
    group. *)
val mk_plan :
  t -> Smemo.Memo.group -> Sphys.Physop.t -> Sphys.Plan.t list -> Sphys.Plan.t

(** [plan_le t p q]: is [p] no costlier than [q]? Far-apart costs are
    decided on the cached values; near-ties between spool-bearing plans
    (ulp-noise territory for either summation order) fall back to the
    walking {!Scost.Dagcost.cost}, so choices are identical to
    walking-cost comparison. *)
val plan_le : t -> Sphys.Plan.t -> Sphys.Plan.t -> bool

(** Cheapest of a candidate list by total plan cost, each candidate costed
    once, with the {!plan_le} near-tie rules. *)
val cheapest : t -> Sphys.Plan.t list -> Sphys.Plan.t option

(** The candidate filter: the operator's own input requirements hold
    against what the children actually deliver, and the delivered
    properties satisfy the caller's requirement.  [static_ok] is
    {!Sphys.Plan_check.static_ok} of the node's operator over its
    children's schemas; for a node built by {!mk_plan} the verdict is
    [Plan_check.check_op node = [] && Reqprops.satisfied node.props req].
    The verdict is passed to [t.observe]. *)
val valid_candidate :
  t -> static_ok:bool -> Sphys.Reqprops.t -> Sphys.Plan.t -> bool

(** The enforcer alternatives of a group under a requirement, prepared
    once per (group, requirement id). *)
val enforcers : t -> Smemo.Memo.group -> Extreq.t -> enforcer list

(** Raised by a bounded {!log_phys_opt} that cut every candidate it could
    have completed: the group's cheapest plan provably costs more than the
    bound. *)
exception Above_bound

(** The winner of a group under an extended requirement in the current
    phase (in any phase at a [share_free] group): a winner-cache lookup,
    and on a miss the [intercept] hook or {!log_phys_opt}, whose result
    is memoized. *)
val optimize_group :
  t -> Smemo.Memo.group -> Extreq.t -> Sphys.Plan.t option

(** Exploration and physical optimization of one group under one
    requirement (the body of Algorithm 5), never memoized; children and
    enforcer inputs go through {!optimize_group}.  Under a finite [bound]
    (default infinity) alternatives and candidates provably costlier than
    the bound are cut; a returned plan is the true winner, and
    {!Above_bound} is raised when cuts left no candidate. *)
val log_phys_opt :
  t -> ?bound:float -> Smemo.Memo.group -> Extreq.t -> Sphys.Plan.t option

(** Optimize the memo's root with no requirement. *)
val optimize_root : t -> Sphys.Plan.t option
