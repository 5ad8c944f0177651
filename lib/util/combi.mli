(** Subset enumeration and list slicing over short lists. *)

(** All non-empty subsets. [2^n - 1] results. *)
val nonempty_subsets : 'a list -> 'a list list

(** First [n] elements (all of them when shorter). *)
val take : int -> 'a list -> 'a list

(** All but the first [n] elements. *)
val drop : int -> 'a list -> 'a list
