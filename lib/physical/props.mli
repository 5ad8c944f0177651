(** Delivered physical properties of a plan: partitioning across machines
    plus the sort order within each partition. *)

type t = { part : Partition.t; sort : Sortorder.t }

val make : Partition.t -> Sortorder.t -> t

val equal : t -> t -> bool

(** Drop anything not expressible over the given output columns. *)
val restrict : Relalg.Colset.t -> t -> t

val pp : t Fmt.t
val to_string : t -> string
