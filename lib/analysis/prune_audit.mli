(** Round-pruning soundness auditor (SA060).

    Re-verifies every (dropped candidate, kept dominator) pair phase 2
    recorded while dominance-filtering round candidates: same concrete
    (non-[Any]) partitioning, dropped sort a non-empty strict prefix of
    the dominator's, and the dominator present among the kept candidates
    that actually generated rounds.  Independent of the filtering code,
    so a weakened rule fails the audit rather than changing plans
    silently. *)

(** Audit all recorded prunes. [candidates] is the kept
    (post-filter) candidate list per shared group. *)
val run :
  candidates:(int * Sphys.Reqprops.t list) list ->
  (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list ->
  Diag.t list
