(** Runtime values flowing through the simulated execution engine. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

(** Total order; [Null] sorts first, ints and floats compare numerically. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int

(** SQL-ish truthiness for predicate results. *)
val is_truthy : t -> bool

(** Arithmetic with [Null] treated as the neutral element for [add]
    (so running sums can start from [Null]); division by zero yields
    [Null]. *)
val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t
val min : t -> t -> t
val max : t -> t -> t
val pp : t Fmt.t
val to_string : t -> string
