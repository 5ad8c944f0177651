(** Enforcer rules: alternatives that optimize the same group under a
    strictly weaker requirement and patch the missing property on top
    (hash exchange, sort-preserving merge exchange, local sort, gather).
    Every generated inner requirement has strictly smaller
    {!Sphys.Reqprops.weight}, so the recursion terminates. *)

type alt = { op : Sphys.Physop.t; inner : Sphys.Reqprops.t }

val alternatives : Sphys.Reqprops.t -> alt list
