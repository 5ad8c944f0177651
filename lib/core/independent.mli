(** Section VIII-A: independent shared groups.

    Shared groups with the same LCA [l] are independent when their
    consuming-path sub-DAGs meet only at [l] (and above); following the
    paper, two groups are dependent when some input of [l] has both in its
    shared-below list. Independent classes are re-optimized sequentially
    instead of combinatorially. *)

(** Partition the given shared groups (all with LCA [l]) into independence
    classes in the order of the input list: members keep their order,
    and classes are ordered by their first member. *)
val classes :
  Shared_info.t -> Smemo.Memo.t -> l:int -> int list -> int list list
