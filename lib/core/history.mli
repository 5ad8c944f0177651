(** Section V: the property history of shared groups.

    Every phase-1 request at a shared group is recorded; a partitioning
    {e range} [∅, C] is expanded into one entry per concrete subset (the
    paper expands [∅,\{A,B,C\}] into its seven non-empty subsets); a
    range over more than four columns expands to the full set, the
    singletons and the adjacent pairs instead, the sets the enforcers try
    ({!Sopt.Enforcers.candidate_sets}). Entries carry a frequency counter
    (Section VIII-C): how often they described a best local plan in
    phase 1. *)

type t

val create : Config.t -> t

(** Number of recorded property sets of a shared group. *)
val count : t -> int -> int

(** Record one phase-1 request (expanded, deduplicated). *)
val record : t -> int -> Sphys.Reqprops.t -> unit

(** Credit the entries matched by a phase-1 winner's delivered
    properties. *)
val note_best : t -> int -> Sphys.Plan.t option -> unit

(** Property sets for round generation: best-ranked first when VIII-C is
    enabled, in first-recorded order otherwise. *)
val ranked_properties : t -> int -> Sphys.Reqprops.t list

(** {!ranked_properties} after dominance filtering: kept property sets in
    ranked order, plus each dropped set paired with the kept candidate
    that dominates it.  [by] dominates [p] when pinning [by] can never
    lose to pinning [p]: same concrete (non-[Any]) partitioning, [p]'s
    sort a non-empty strict prefix of [by]'s.  Sort production cost is
    key-independent in the cost model, so the longer order satisfies (by
    prefix closure) every consumer [p] could satisfy at equal enforcement
    cost.  With [Config.prune] off, everything is kept. *)
val candidates :
  t -> int -> Sphys.Reqprops.t list * (Sphys.Reqprops.t * Sphys.Reqprops.t) list
