(** Aggregate functions (SUM / COUNT / MIN / MAX) with an explicit
    local/global decomposition used by the two-stage aggregation rewrite.
    AVG is decomposed into SUM and COUNT by the binder. *)

type func = Sum | Count | Min | Max

type t = { func : func; arg : Expr.t; output : string }

val make : func -> Expr.t -> string -> t

(** Running-aggregate state. *)
type state

val init : unit -> state

(** Fold one evaluated [arg] value into the state (callers compile and
    evaluate [arg] themselves). *)
val step_value : t -> state -> Value.t -> unit

val finish : t -> state -> Value.t

(** Aggregate that combines local partial results named [a.output] into the
    final value of the same name (e.g. global SUM over local COUNTs). *)
val global_combinator : t -> t

val func_name : func -> string
val output_type : Schema.t -> t -> Schema.coltype
val to_string : t -> string
