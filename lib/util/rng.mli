(** Deterministic pseudo-random number generator (splitmix64).

    Used everywhere in place of [Random] so that data generation, workload
    synthesis and tests are reproducible. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    when [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** Uniform element of a non-empty list. *)
val pick_list : t -> 'a list -> 'a

(** Fisher-Yates shuffle; returns a fresh array. *)
val shuffle : t -> 'a array -> 'a array
