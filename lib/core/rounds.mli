(** Re-optimization round search (Algorithm 4, line 7, plus the
    Section VIII refinements).

    A round is one complete assignment of a property set to every shared
    group handled at an LCA. {!search} probes rounds one at a time: within
    an independence class it walks the cartesian product lazily
    (mixed-radix decoding; a dependent class's product can exceed 10^18
    and is cut off by the optimization budget), the first group varying
    fastest. Across classes the walk is sequential (VIII-A): a finished
    class freezes its best assignment; later classes skip their
    already-evaluated all-initial combination. *)

type assignment = (int * Sphys.Reqprops.t) list

(** Independence classes, each a list of (shared group, its ranked
    property sets). *)
type classes = (int * Sphys.Reqprops.t list) list list

(** [search classes ~incumbent ~exhausted ~probe] probes every round in
    order until the space or the budget runs out: [exhausted ()] is
    checked before every probe. [probe assignment ~bound] returns the
    round's cost, or [infinity] when it is infeasible or was aborted
    above [bound]. The bound is the last class's slackened best so far
    ([incumbent] and every cost seen); an earlier class is bounded only
    by its own slackened best, since its best is frozen. Empty classes
    and classes with a group without properties are skipped. *)
val search :
  classes ->
  incumbent:float ->
  exhausted:(unit -> bool) ->
  probe:(assignment -> bound:float -> float) ->
  unit

(** Round count without VIII-A: the saturated full product. *)
val naive_total : classes -> int

(** Round count with VIII-A: first class in full, later classes minus the
    all-initial combination. *)
val sequential_total : classes -> int
