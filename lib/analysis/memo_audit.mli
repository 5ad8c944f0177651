(** Memo auditor.

    Structural checks over the memo after optimization: group references
    form a DAG (SA001), every group expression is arity- and
    schema-compatible with its group (SA002), and group statistics are sane
    (SA021/SA022).

    Winner checks re-verify the memo's bookkeeping: each memoized winner's
    cost is recomputed bottom-up from the cost model (SA003), the plan is
    run through the independent plan checker (SA004), its delivered
    properties are checked against the recorded requirement (SA005), its
    root must implement the audited group (SA007) — except a
    conventional-pass (phase 0) winner of a shared group, which must be
    the spooled child's phase-0 winner under the same requirement
    (SA007) — and every infeasibility marker is checked against feasible
    winners of the same group, phase and enforcement map (SA006).  A
    group's winner findings come in (phase, requirement key) order.

    The SA003/SA004 verdict is memoized per distinct plan node (by
    physical identity) within one {!run}, so winners sharing subplans
    cost O(distinct nodes) between them; only a winner with a violation
    below it is walked again to word its diagnostics. *)

(** Where the winner checks report a memoized winner of a group. *)
val winner_loc : Smemo.Memo.group -> Smemo.Memo.winner -> Diag.location

(** Audit one winner plan's costs against the cost model, visiting each
    distinct node once.  {!run} emits exactly these SA003 diagnostics
    for every winner. *)
val cost_diags :
  cluster:Scost.Cluster.t -> loc:Diag.location -> Sphys.Plan.t -> Diag.t list

(** Run the full memo audit. *)
val run : cluster:Scost.Cluster.t -> Smemo.Memo.t -> Diag.t list
