open Relalg

type join_kind = Inner | Left_outer

(* Logical operators.  [Group_by_local]/[Group_by_global] are introduced by
   the two-stage aggregation exploration rule; the binder only ever emits
   [Group_by].  [Spool] is inserted by the CSE framework (Algorithm 1) on
   top of shared groups. *)

type t =
  | Extract of { file : string; extractor : string; schema : Schema.t }
  | Filter of { pred : Expr.t }
  | Project of { items : (Expr.t * string) list }
  | Group_by of { keys : string list; aggs : Agg.t list }
  | Group_by_local of { keys : string list; aggs : Agg.t list }
  | Group_by_global of { keys : string list; aggs : Agg.t list }
  | Join of {
      kind : join_kind;
      pairs : (string * string) list;
      residual : Expr.t option;
    }
  | Union_all
  | Spool
  | Output of { file : string; order : (string * bool) list }
      (* ORDER BY columns with a descending flag: a requirement for a
         globally ordered (hence serial) result *)
  | Sequence

(* Operator identifiers for fingerprints (Definition 1): every operator of
   the same kind shares an [op_id]. *)
let op_id = function
  | Extract _ -> 1
  | Filter _ -> 2
  | Project _ -> 3
  | Group_by _ -> 4
  | Group_by_local _ -> 5
  | Group_by_global _ -> 6
  | Join _ -> 7
  | Union_all -> 8
  | Spool -> 9
  | Output _ -> 10
  | Sequence -> 11

(* Number of children each operator expects; [None] means variadic. *)
let arity = function
  | Extract _ -> Some 0
  | Filter _ | Project _ | Group_by _ | Group_by_local _ | Group_by_global _
  | Spool
  | Output _ ->
      Some 1
  | Join _ | Union_all -> Some 2
  | Sequence -> None

(* Derive the output schema from the operator and its children's schemas. *)
let derive_schema op (children : Schema.t list) : Schema.t =
  let child () =
    match children with
    | [ s ] -> s
    | _ -> invalid_arg "Logop.derive_schema: expected one child"
  in
  match op with
  | Extract { schema; _ } -> schema
  | Filter _ | Spool | Output _ -> child ()
  | Project { items } ->
      let s = child () in
      List.map (fun (e, name) -> Schema.column name (Expr.infer_type s e)) items
  | Group_by { keys; aggs }
  | Group_by_local { keys; aggs }
  | Group_by_global { keys; aggs } ->
      let s = child () in
      let key_cols =
        List.map
          (fun k ->
            match Schema.find k s with
            | Some c -> c
            | None -> Schema.column k Schema.Tint)
          keys
      in
      let agg_cols =
        List.map
          (fun a -> Schema.column a.Agg.output (Agg.output_type s a))
          aggs
      in
      key_cols @ agg_cols
  | Join _ -> (
      match children with
      | [ l; r ] -> l @ r
      | _ -> invalid_arg "Logop.derive_schema: join expects two children")
  | Union_all -> (
      match children with
      | [ l; _ ] -> l
      | _ -> invalid_arg "Logop.derive_schema: union expects two children")
  | Sequence -> []

let short_name = function
  | Extract _ -> "Extract"
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Group_by _ -> "GB"
  | Group_by_local _ -> "GBLocal"
  | Group_by_global _ -> "GBGlobal"
  | Join _ -> "Join"
  | Union_all -> "UnionAll"
  | Spool -> "Spool"
  | Output _ -> "Output"
  | Sequence -> "Sequence"

let pp ppf op =
  match op with
  | Extract { file; extractor; _ } ->
      Fmt.pf ppf "Extract(%s USING %s)" file extractor
  | Filter { pred } -> Fmt.pf ppf "Filter(%a)" Expr.pp pred
  | Project { items } ->
      Fmt.pf ppf "Project(%s)"
        (String.concat ", "
           (List.map (fun (e, n) -> Fmt.str "%a AS %s" Expr.pp e n) items))
  | Group_by { keys; aggs } ->
      Fmt.pf ppf "GB(%s; %s)" (String.concat "," keys)
        (String.concat ", " (List.map Agg.to_string aggs))
  | Group_by_local { keys; aggs } ->
      Fmt.pf ppf "GBLocal(%s; %s)" (String.concat "," keys)
        (String.concat ", " (List.map Agg.to_string aggs))
  | Group_by_global { keys; aggs } ->
      Fmt.pf ppf "GBGlobal(%s; %s)" (String.concat "," keys)
        (String.concat ", " (List.map Agg.to_string aggs))
  | Join { kind; pairs; residual } ->
      Fmt.pf ppf "%sJoin(%s%s)"
        (match kind with Inner -> "" | Left_outer -> "Left")
        (String.concat " AND "
           (List.map (fun (a, b) -> Fmt.str "%s=%s" a b) pairs))
        (match residual with
        | None -> ""
        | Some e -> Fmt.str "; %a" Expr.pp e)
  | Union_all -> Fmt.string ppf "UnionAll"
  | Spool -> Fmt.string ppf "Spool"
  | Output { file; order } ->
      Fmt.pf ppf "Output(%s%s)" file
        (match order with
        | [] -> ""
        | o ->
            " ORDER BY "
            ^ String.concat ", "
                (List.map (fun (c, d) -> c ^ if d then " DESC" else "") o))
  | Sequence -> Fmt.string ppf "Sequence"
