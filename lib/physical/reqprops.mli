(** Required physical properties.

    SCOPE expresses a partitioning requirement as a range [∅, C]: any
    non-empty subset of [C] is acceptable, because a stream partitioned on
    [S ⊆ C] co-locates all rows that agree on [C] (Section I and
    Figure 1(b) of the paper). [Hash_exact] is the closed form used when
    the CSE framework enforces one concrete scheme at a shared group
    (Section VII). *)

type part_req =
  | Any
  | Serial_req
  | Hash_subset of Relalg.Colset.t
      (** the range [∅, C]; satisfied by any non-empty subset of [C] *)
  | Hash_exact of Relalg.Colset.t

type t = { part : part_req; sort : Sortorder.t }

(** No requirement at all. *)
val none : t

val make : part_req -> Sortorder.t -> t
val equal : t -> t -> bool

(** Partitioning half of [satisfied]. *)
val part_satisfied : Partition.t -> part_req -> bool

(** PropertySatisfied of Algorithm 2: the delivered properties meet the
    requirement. *)
val satisfied : Props.t -> t -> bool

(** Strictly decreasing measure for enforcer recursion: every enforcer
    optimizes the same group under a requirement of smaller weight. *)
val weight : t -> int

(** Canonical winner-table key. *)
val to_key : t -> string

val pp : t Fmt.t
val to_string : t -> string
