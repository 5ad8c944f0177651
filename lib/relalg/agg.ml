(* Aggregate functions.  AVG is decomposed into SUM/COUNT by the binder so
   that every aggregate here is trivially partitionable into a local
   pre-aggregation and a global combination step -- the property the
   two-stage (local/global) aggregation rewrite relies on. *)

type func = Sum | Count | Min | Max

type t = { func : func; arg : Expr.t; output : string }

let make func arg output = { func; arg; output }

(* State of one running aggregate. *)
type state = { mutable acc : Value.t; mutable count : int }

let init () = { acc = Value.Null; count = 0 }

(* Fold one already-evaluated argument value into the state; callers that
   precompiled [a.arg] (the batch executor, [Table.group_by]) evaluate it
   themselves and skip the per-row schema walk of [step]. *)
let step_value a st v =
  st.count <- st.count + 1;
  match a.func with
  | Sum -> st.acc <- Value.add st.acc v
  | Count -> ()
  | Min -> st.acc <- (if st.count = 1 then v else Value.min st.acc v)
  | Max -> st.acc <- (if st.count = 1 then v else Value.max st.acc v)

let finish a st =
  match a.func with
  | Count -> Value.Int st.count
  | Sum -> (match st.acc with Value.Null -> Value.Int 0 | v -> v)
  | Min | Max -> st.acc

(* Local/global decomposition: the local step emits a partial column named
   [output]; the global step combines partials.  COUNT combines with SUM. *)
let global_combinator a =
  let arg = Expr.col a.output in
  match a.func with
  | Sum | Count -> { func = Sum; arg; output = a.output }
  | Min -> { func = Min; arg; output = a.output }
  | Max -> { func = Max; arg; output = a.output }

let func_name = function
  | Sum -> "Sum"
  | Count -> "Count"
  | Min -> "Min"
  | Max -> "Max"

let output_type schema a =
  match a.func with
  | Count -> Schema.Tint
  | Sum | Min | Max -> Expr.infer_type schema a.arg

let pp ppf a =
  Fmt.pf ppf "%s(%a) AS %s" (func_name a.func) Expr.pp a.arg a.output

let to_string a = Fmt.str "%a" pp a
