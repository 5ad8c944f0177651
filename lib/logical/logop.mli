(** Logical operators.

    [Group_by_local]/[Group_by_global] are introduced by the two-stage
    aggregation exploration rule; the binder only emits [Group_by].
    [Spool] is inserted by the CSE framework (Algorithm 1) on top of
    shared groups. *)

type join_kind = Inner | Left_outer

type t =
  | Extract of {
      file : string;
      extractor : string;
      schema : Relalg.Schema.t;
    }
  | Filter of { pred : Relalg.Expr.t }
  | Project of { items : (Relalg.Expr.t * string) list }
  | Group_by of { keys : string list; aggs : Relalg.Agg.t list }
  | Group_by_local of { keys : string list; aggs : Relalg.Agg.t list }
  | Group_by_global of { keys : string list; aggs : Relalg.Agg.t list }
  | Join of {
      kind : join_kind;
      pairs : (string * string) list;  (** equi-join column pairs *)
      residual : Relalg.Expr.t option;
          (** extra conjuncts of the match condition *)
    }
  | Union_all
  | Spool
  | Output of { file : string; order : (string * bool) list }
      (** ORDER BY columns with a descending flag: a requirement for a
          globally ordered (hence serial) result *)
  | Sequence

(** Operator-kind identifier for fingerprints (Definition 1): all group-bys
    share one id, all joins another, and so on. *)
val op_id : t -> int

(** Number of children the operator expects; [None] = variadic. *)
val arity : t -> int option

(** Output schema from the operator and its children's schemas.
    Raises [Invalid_argument] on arity mismatch. *)
val derive_schema : t -> Relalg.Schema.t list -> Relalg.Schema.t

val short_name : t -> string
val pp : t Fmt.t
