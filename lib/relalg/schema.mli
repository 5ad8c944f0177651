(** Relation schemas: ordered, typed column lists defining the row layout. *)

type coltype = Tint | Tfloat | Tstr

type column = { name : string; ty : coltype }

type t = column list

val column : string -> coltype -> column

(** Column names in layout order. *)
val names : t -> string list

(** Name set of the schema. *)
val colset : t -> Colset.t

val arity : t -> int
val mem : string -> t -> bool
val find : string -> t -> column option

(** Position of [name] in the row layout. Raises [Not_found]. *)
val index : string -> t -> int

val index_opt : string -> t -> int option
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string
