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

let col c = Col c

let rec columns = function
  | Col c -> Colset.singleton c
  | Lit _ -> Colset.empty
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      Colset.union (columns a) (columns b)
  | Not a -> columns a

(* Rename every column reference through [f]; used when projecting through
   aliases. *)
let rec rename f = function
  | Col c -> Col (f c)
  | Lit v -> Lit v
  | Binop (op, a, b) -> Binop (op, rename f a, rename f b)
  | Cmp (op, a, b) -> Cmp (op, rename f a, rename f b)
  | And (a, b) -> And (rename f a, rename f b)
  | Or (a, b) -> Or (rename f a, rename f b)
  | Not a -> Not (rename f a)

let eval_binop op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b
  | Mod -> Value.modulo a b

let cmp_holds op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* The literal results are static constants: no allocation per call. *)
let eval_cmp op a b = if cmp_holds op a b then Value.Int 1 else Value.Int 0

(* Compiled form: every column reference is resolved to its row-layout
   position once, so per-row evaluation does no schema walking (no
   per-row string comparisons).  The constructors are public so columnar
   interpreters (the batch executor) can reuse the same compiled tree
   with their own data access pattern. *)
type compiled =
  | CCol of int
  | CLit of Value.t
  | CBinop of binop * compiled * compiled
  | CCmp of cmpop * compiled * compiled
  | CAnd of compiled * compiled
  | COr of compiled * compiled
  | CNot of compiled

let rec compile schema = function
  | Col c -> CCol (Schema.index c schema)
  | Lit v -> CLit v
  | Binop (op, a, b) -> CBinop (op, compile schema a, compile schema b)
  | Cmp (op, a, b) -> CCmp (op, compile schema a, compile schema b)
  | And (a, b) -> CAnd (compile schema a, compile schema b)
  | Or (a, b) -> COr (compile schema a, compile schema b)
  | Not a -> CNot (compile schema a)

(* Evaluate a compiled expression against one row.  Mirrors [eval]
   exactly (same short-circuiting, same Value semantics), minus the
   per-reference [Schema.index] lookup. *)
let rec ceval (row : Value.t array) = function
  | CCol i -> row.(i)
  | CLit v -> v
  | CBinop (op, a, b) -> eval_binop op (ceval row a) (ceval row b)
  | CCmp (op, a, b) -> eval_cmp op (ceval row a) (ceval row b)
  | CAnd (a, b) ->
      if Value.is_truthy (ceval row a) then ceval row b else Value.Int 0
  | COr (a, b) ->
      if Value.is_truthy (ceval row a) then Value.Int 1 else ceval row b
  | CNot a -> Value.Int (if Value.is_truthy (ceval row a) then 0 else 1)

let ceval_pred row e = Value.is_truthy (ceval row e)

let rec infer_type schema = function
  | Col c -> (
      match Schema.find c schema with
      | Some col -> col.Schema.ty
      | None -> Schema.Tint)
  | Lit (Value.Int _) -> Schema.Tint
  | Lit (Value.Float _) -> Schema.Tfloat
  | Lit (Value.Str _) -> Schema.Tstr
  | Lit Value.Null -> Schema.Tint
  | Binop (_, a, b) -> (
      match (infer_type schema a, infer_type schema b) with
      | Schema.Tfloat, _ | _, Schema.Tfloat -> Schema.Tfloat
      | Schema.Tstr, _ | _, Schema.Tstr -> Schema.Tstr
      | Schema.Tint, Schema.Tint -> Schema.Tint)
  | Cmp _ | And _ | Or _ | Not _ -> Schema.Tint

let pp_binop ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "+"
    | Sub -> "-"
    | Mul -> "*"
    | Div -> "/"
    | Mod -> "%")

let pp_cmpop ppf op =
  Fmt.string ppf
    (match op with
    | Eq -> "=="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let rec pp ppf = function
  | Col c -> Fmt.string ppf c
  | Lit v -> Value.pp ppf v
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a pp_binop op pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a pp_cmpop op pp b
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not a -> Fmt.pf ppf "(NOT %a)" pp a

let to_string e = Fmt.str "%a" pp e

(* Conjunction of equality comparisons "a.x = b.y" is the join-predicate
   shape the optimizer understands; extract those pairs when possible. *)
let rec equi_pairs = function
  | Cmp (Eq, Col a, Col b) -> Some [ (a, b) ]
  | And (l, r) -> (
      match (equi_pairs l, equi_pairs r) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | _ -> None
