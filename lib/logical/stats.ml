open Relalg

(* Cardinality and NDV estimation.

   Estimates are derived per operator from child estimates, so the same
   rules serve both the initial logical DAG and memo groups created later
   by exploration rules.  The model is deliberately simple and standard:
   independence across columns, containment for joins, fixed selectivity
   for opaque predicates -- the paper's evaluation compares *estimated*
   costs, so what matters is that both optimization modes share one
   estimation model. *)

type t = {
  rows : float;
  row_bytes : float;
  (* per-column NDV; columns absent from the list default to [rows]. *)
  ndvs : (string * float) list;
}

let filter_selectivity = 0.1
let eq_literal_default_ndv = 100.0

let col_ndv t c =
  match List.assoc_opt c t.ndvs with Some n -> n | None -> t.rows

(* NDV of a combined key: independence assumption capped by row count. *)
let colset_ndv t cols =
  let product =
    List.fold_left (fun acc c -> acc *. col_ndv t c) 1.0 (Colset.to_list cols)
  in
  Float.max 1.0 (Float.min t.rows product)

let cap_ndvs rows ndvs =
  List.map (fun (c, n) -> (c, Float.min n rows)) ndvs

let width_of_coltype = function
  | Schema.Tint -> 8.0
  | Schema.Tfloat -> 8.0
  | Schema.Tstr -> 24.0

let schema_bytes (schema : Schema.t) =
  List.fold_left (fun acc c -> acc +. width_of_coltype c.Schema.ty) 8.0 schema

(* Selectivity of a predicate given input stats. *)
let rec selectivity t (pred : Expr.t) =
  match pred with
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Lit _)
  | Expr.Cmp (Expr.Eq, Expr.Lit _, Expr.Col c) ->
      1.0 /. Float.max 1.0 (col_ndv t c)
  | Expr.Cmp (Expr.Eq, _, _) -> 1.0 /. eq_literal_default_ndv
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> 0.3
  | Expr.Cmp (Expr.Ne, _, _) -> 0.9
  | Expr.And (a, b) -> selectivity t a *. selectivity t b
  | Expr.Or (a, b) ->
      let sa = selectivity t a and sb = selectivity t b in
      Float.min 1.0 (sa +. sb -. (sa *. sb))
  | Expr.Not a -> Float.max 0.01 (1.0 -. selectivity t a)
  | _ -> filter_selectivity

let of_file (stats : Catalog.file_stats) (schema : Schema.t) : t =
  let rows = float_of_int stats.Catalog.rows in
  {
    rows;
    row_bytes = schema_bytes schema;
    ndvs =
      List.map
        (fun c ->
          (c.Schema.name, float_of_int (Catalog.col_ndv stats c.Schema.name)))
        schema;
  }

(* Derive output stats of [op] applied to children with stats [children].
   [machines] is the cluster size, needed for local pre-aggregation whose
   output has up to ndv(keys) rows per machine. *)
let derive ~machines (op : Logop.t) ~(catalog : Catalog.t)
    ~(schema : Schema.t) (children : t list) : t =
  let child () =
    match children with
    | [ c ] -> c
    | _ -> invalid_arg "Stats.derive: expected one child"
  in
  match op with
  | Logop.Extract { file; schema; _ } -> (
      match Catalog.find catalog file with
      | Some stats -> of_file stats schema
      | None ->
          { rows = 1_000_000.0; row_bytes = schema_bytes schema; ndvs = [] })
  | Logop.Filter { pred } ->
      let c = child () in
      let rows = Float.max 1.0 (c.rows *. selectivity c pred) in
      { c with rows; ndvs = cap_ndvs rows c.ndvs }
  | Logop.Project { items } ->
      let c = child () in
      let ndvs =
        List.map
          (fun (e, name) ->
            match e with
            | Expr.Col src -> (name, col_ndv c src)
            | Expr.Lit _ -> (name, 1.0)
            | _ -> (name, c.rows))
          items
      in
      { rows = c.rows; row_bytes = schema_bytes schema; ndvs }
  | Logop.Group_by { keys; aggs = _ } | Logop.Group_by_global { keys; aggs = _ }
    ->
      let c = child () in
      let rows = colset_ndv c (Colset.of_list keys) in
      let key_ndvs =
        List.map (fun k -> (k, Float.min (col_ndv c k) rows)) keys
      in
      let agg_ndvs =
        List.filter_map
          (fun col ->
            if List.mem col.Schema.name keys then None
            else Some (col.Schema.name, rows))
          schema
      in
      { rows; row_bytes = schema_bytes schema; ndvs = key_ndvs @ agg_ndvs }
  | Logop.Group_by_local { keys; aggs = _ } ->
      (* each machine keeps at most ndv(keys) groups *)
      let c = child () in
      let groups = colset_ndv c (Colset.of_list keys) in
      let rows =
        Float.min c.rows (groups *. float_of_int (max 1 machines))
      in
      let key_ndvs =
        List.map (fun k -> (k, Float.min (col_ndv c k) rows)) keys
      in
      let agg_ndvs =
        List.filter_map
          (fun col ->
            if List.mem col.Schema.name keys then None
            else Some (col.Schema.name, rows))
          schema
      in
      { rows; row_bytes = schema_bytes schema; ndvs = key_ndvs @ agg_ndvs }
  | Logop.Join { kind; pairs; residual } -> (
      match children with
      | [ l; r ] ->
          let sel_pair (a, b) =
            1.0 /. Float.max 1.0 (Float.max (col_ndv l a) (col_ndv r b))
          in
          let join_sel =
            List.fold_left (fun acc p -> acc *. sel_pair p) 1.0 pairs
          in
          let rows = Float.max 1.0 (l.rows *. r.rows *. join_sel) in
          let rows =
            match residual with
            | None -> rows
            | Some p ->
                Float.max 1.0
                  (rows *. selectivity { l with rows } p)
          in
          (* a left outer join keeps every left row *)
          let rows =
            match kind with
            | Logop.Inner -> rows
            | Logop.Left_outer -> Float.max rows l.rows
          in
          let ndvs = cap_ndvs rows (l.ndvs @ r.ndvs) in
          { rows; row_bytes = schema_bytes schema; ndvs }
      | _ -> invalid_arg "Stats.derive: join expects two children")
  | Logop.Union_all -> (
      match children with
      | [ l; r ] ->
          let rows = l.rows +. r.rows in
          let ndvs =
            List.map (fun (c, n) -> (c, Float.min rows (n +. col_ndv r c))) l.ndvs
          in
          { rows; row_bytes = l.row_bytes; ndvs }
      | _ -> invalid_arg "Stats.derive: union expects two children")
  | Logop.Spool | Logop.Output _ -> child ()
  | Logop.Sequence -> { rows = 0.0; row_bytes = 0.0; ndvs = [] }
