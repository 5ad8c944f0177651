(** Sets of column names with canonical (sorted) representation, so that
    structural equality is set equality. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : string -> t
val of_list : string list -> t

(** Sorted, duplicate-free element list. *)
val to_list : t -> string list

val mem : string -> t -> bool
val cardinal : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [subset a b] is true when every element of [a] is in [b]. *)
val subset : t -> t -> bool

val equal : t -> t -> bool

(** All non-empty subsets (2^n - 1 of them). *)
val nonempty_subsets : t -> t list

val pp : t Fmt.t
val to_string : t -> string
