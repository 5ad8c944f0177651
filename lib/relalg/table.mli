(** In-memory relations; the reference evaluator used to cross-check the
    distributed execution engine. *)

type t = { schema : Schema.t; rows : Value.t array list }

val make : Schema.t -> Value.t array list -> t
val empty : Schema.t -> t
val cardinality : t -> int

(** [project t [(expr, name); ...]] evaluates each expression per row. *)
val project : t -> (Expr.t * string) list -> t

val filter : t -> Expr.t -> t

(** Reference hash group-by; output schema is keys then aggregate outputs. *)
val group_by : t -> keys:string list -> aggs:Agg.t list -> t

(** Nested-loop join on an arbitrary predicate over the combined schema;
    [`Left_outer] pads unmatched left rows with nulls. *)
val join : ?kind:[ `Inner | `Left_outer ] -> t -> t -> Expr.t -> t

val union_all : t -> t -> t

(** Multiset equality of rows (order-insensitive), requiring equal column
    names. *)
val same_contents : t -> t -> bool
