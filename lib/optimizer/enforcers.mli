(** Enforcer rules: alternatives that optimize the same group under a
    strictly weaker requirement and patch the missing property on top
    (hash exchange, sort-preserving merge exchange, local sort, gather).
    Every generated inner requirement has strictly smaller
    {!Sphys.Reqprops.weight}, so the recursion terminates. *)

type alt = { op : Sphys.Physop.t; inner : Sphys.Reqprops.t }

val alternatives : Sphys.Reqprops.t -> alt list

(** The concrete partitioning sets tried for a range requirement
    [[∅, C]]: every non-empty subset when C has at most 4 columns, else C
    itself, its singletons and its adjacent pairs.  {!Cse.History}
    expands a recorded range into the same sets, so every recorded entry
    is plannable. *)
val candidate_sets : Relalg.Colset.t -> Relalg.Colset.t list
