(** Scalar expressions and predicates over named columns. *)

type binop = Add | Sub | Mul | Div | Mod

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of string
  | Lit of Value.t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t

val col : string -> t

(** Columns referenced by the expression. *)
val columns : t -> Colset.t

(** Rename every column reference through the given function. *)
val rename : (string -> string) -> t -> t

(** Compiled expression: column references resolved to row-layout
    positions once, so repeated evaluation does no schema walking.  The
    constructors are public so columnar interpreters can walk the same
    tree with their own data access pattern. *)
type compiled =
  | CCol of int
  | CLit of Value.t
  | CBinop of binop * compiled * compiled
  | CCmp of cmpop * compiled * compiled
  | CAnd of compiled * compiled
  | COr of compiled * compiled
  | CNot of compiled

(** Resolve column references against the schema.
    Raises [Not_found] when a referenced column is missing. *)
val compile : Schema.t -> t -> compiled

val ceval : Value.t array -> compiled -> Value.t
val ceval_pred : Value.t array -> compiled -> bool
val eval_binop : binop -> Value.t -> Value.t -> Value.t
val eval_cmp : cmpop -> Value.t -> Value.t -> Value.t

(** Whether the comparison holds: [eval_cmp] is [Int 1] exactly when
    [cmp_holds] is true. *)
val cmp_holds : cmpop -> Value.t -> Value.t -> bool

val infer_type : Schema.t -> t -> Schema.coltype

(** Extract the [(left_col, right_col)] pairs of a pure conjunctive
    equality predicate; [None] when the predicate has any other shape. *)
val equi_pairs : t -> (string * string) list option

val pp_binop : binop Fmt.t
val pp_cmpop : cmpop Fmt.t
val pp : t Fmt.t
val to_string : t -> string
