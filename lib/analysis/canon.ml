open Relalg

(* Canonical relational-algebra forms for the cross-layer equivalence
   audit (SA050/SA051/SA058).

   Both the bound logical DAG and a chosen physical plan are normalized
   into one hash-consed term language: predicates are flattened, oriented
   and sorted; filters merge with adjacent filters and hoist above joins;
   projection and aggregation parameter lists are sorted; inner-join
   operands are ordered canonically (commutativity); UNION ALL trees are
   flattened; and everything purely physical — spools, exchanges, sorts,
   gathers, the local/global split of one aggregation — is erased.  Two
   sides describe the same query exactly when they intern to the same
   canonical id, so equivalence checking is O(1) per output after the
   bottom-up normalization.

   ORDER BY is deliberately absent from the canonical form: a physical
   plan realizes it as delivered properties (serial + sort) on the OUTPUT
   operator's input, which {!Equiv_audit} checks separately (SA058). *)

exception Unrepresentable of string

type shape =
  | C_source of { file : string; extractor : string; cols : string list }
  | C_filter of { preds : Expr.t list; input : int }
  | C_project of { items : (string * Expr.t) list; input : int }
  | C_group of {
      keys : string list;
      aggs : (string * string * Expr.t) list;
      input : int;
    }
  | C_group_partial of {
      keys : string list;
      aggs : (string * string * Expr.t) list;
      input : int;
    }
      (* a per-machine pre-aggregation: only meaningful as the input of a
         matching global combination, never as a query result *)
  | C_join of {
      kind : Slogical.Logop.join_kind;
      pairs : (string * string) list;
      residual : Expr.t option;
      left : int;
      right : int;
    }
  | C_union of int list
  | C_output of { file : string; input : int }

type ctx = {
  ids : (shape, int) Hashtbl.t;
  shapes : (int, shape) Hashtbl.t;
  mutable next : int;
}

let create () =
  { ids = Hashtbl.create 256; shapes = Hashtbl.create 256; next = 0 }

let copy c = { c with ids = Hashtbl.copy c.ids; shapes = Hashtbl.copy c.shapes }

let intern ctx s =
  match Hashtbl.find_opt ctx.ids s with
  | Some i -> i
  | None ->
      let i = ctx.next in
      ctx.next <- i + 1;
      Hashtbl.add ctx.ids s i;
      Hashtbl.add ctx.shapes i s;
      i

let shape ctx i = Hashtbl.find ctx.shapes i

(* ---- expression normalization ----------------------------------------- *)

let rec flat_and e acc =
  match e with Expr.And (a, b) -> flat_and a (flat_and b acc) | e -> e :: acc

let rec flat_or e acc =
  match e with Expr.Or (a, b) -> flat_or a (flat_or b acc) | e -> e :: acc

let rec norm_expr (e : Expr.t) : Expr.t =
  match e with
  | Expr.Col _ | Expr.Lit _ -> e
  | Expr.Binop (op, a, b) -> (
      let a = norm_expr a and b = norm_expr b in
      match op with
      | (Expr.Add | Expr.Mul) when compare a b > 0 -> Expr.Binop (op, b, a)
      | _ -> Expr.Binop (op, a, b))
  | Expr.Cmp (op, a, b) -> (
      let a = norm_expr a and b = norm_expr b in
      match op with
      | (Expr.Eq | Expr.Ne) when compare a b > 0 -> Expr.Cmp (op, b, a)
      | Expr.Gt -> Expr.Cmp (Expr.Lt, b, a)
      | Expr.Ge -> Expr.Cmp (Expr.Le, b, a)
      | _ -> Expr.Cmp (op, a, b))
  | Expr.And _ ->
      rebuild (fun a b -> Expr.And (a, b))
        (List.sort_uniq compare (List.map norm_expr (flat_and e [])))
  | Expr.Or _ ->
      rebuild (fun a b -> Expr.Or (a, b))
        (List.sort_uniq compare (List.map norm_expr (flat_or e [])))
  | Expr.Not a -> Expr.Not (norm_expr a)

and rebuild join = function
  | [] -> invalid_arg "Canon.norm_expr: empty connective"
  | x :: rest -> List.fold_left join x rest

(* A predicate as its sorted, normalized conjunct list. *)
let conjuncts pred =
  List.sort_uniq compare (List.map norm_expr (flat_and pred []))

let norm_aggs aggs =
  List.sort compare
    (List.map
       (fun (a : Agg.t) ->
         (a.Agg.output, Agg.func_name a.Agg.func, norm_expr a.Agg.arg))
       aggs)

(* ---- smart constructors ----------------------------------------------- *)

(* A partial (local) aggregation consumed by anything but its global
   combination step has no logical meaning. *)
let no_partial ctx what cid =
  match shape ctx cid with
  | C_group_partial _ ->
      raise
        (Unrepresentable
           (Printf.sprintf
              "local (partial) aggregation consumed by %s instead of a \
               matching global combination"
              what))
  | _ -> ()

let mk_filter ctx preds input =
  if preds = [] then input
  else begin
    no_partial ctx "a filter" input;
    let preds, input =
      match shape ctx input with
      | C_filter { preds = inner; input } -> (preds @ inner, input)
      | _ -> (preds, input)
    in
    intern ctx (C_filter { preds = List.sort_uniq compare preds; input })
  end

let mk_project ctx items input =
  no_partial ctx "a projection" input;
  let items =
    List.sort compare (List.map (fun (e, n) -> (n, norm_expr e)) items)
  in
  intern ctx (C_project { items; input })

let mk_group ctx ~keys ~aggs input =
  no_partial ctx "an aggregation" input;
  intern ctx
    (C_group
       { keys = List.sort_uniq String.compare keys; aggs = norm_aggs aggs; input })

let mk_partial ctx ~keys ~aggs input =
  no_partial ctx "an aggregation" input;
  intern ctx
    (C_group_partial
       { keys = List.sort_uniq String.compare keys; aggs = norm_aggs aggs; input })

(* The canonical form of [Agg.global_combinator] on an already-normalized
   (output, func, arg) triple. *)
let combined_of_local (output, func, _arg) =
  let func = match func with "Sum" | "Count" -> "Sum" | f -> f in
  (output, func, Expr.Col output)

(* A global combination step is only representable directly on top of a
   matching local pre-aggregation; the pair collapses to the single
   logical GROUP BY it implements. *)
let mk_global ctx ~keys ~aggs input =
  let keys = List.sort_uniq String.compare keys in
  let aggs = norm_aggs aggs in
  match shape ctx input with
  | C_group_partial { keys = lkeys; aggs = laggs; input = linput }
    when lkeys = keys
         && List.sort compare (List.map combined_of_local laggs) = aggs ->
      intern ctx (C_group { keys; aggs = laggs; input = linput })
  | _ ->
      raise
        (Unrepresentable
           "global aggregation does not combine a matching local \
            pre-aggregation")

let mk_join ctx ~kind ~pairs ~residual left right =
  no_partial ctx "a join" left;
  no_partial ctx "a join" right;
  (* hoist filters above the join: always valid on the preserved (left)
     side, valid on the right side for inner joins only *)
  let hoist cid =
    match shape ctx cid with
    | C_filter { preds; input } -> (preds, input)
    | _ -> ([], cid)
  in
  let lpreds, left = hoist left in
  let rpreds, right =
    match kind with
    | Slogical.Logop.Inner -> hoist right
    | Slogical.Logop.Left_outer -> ([], right)
  in
  let residual = Option.map norm_expr residual in
  (* inner joins modulo commutativity: order the operands canonically,
     flipping the equality pairs with them *)
  let pairs, left, right =
    match kind with
    | Slogical.Logop.Inner when right < left ->
        (List.map (fun (a, b) -> (b, a)) pairs, right, left)
    | _ -> (pairs, left, right)
  in
  let pairs = List.sort_uniq compare pairs in
  let jid = intern ctx (C_join { kind; pairs; residual; left; right }) in
  mk_filter ctx (lpreds @ rpreds) jid

let mk_union ctx inputs =
  List.iter (no_partial ctx "a union") inputs;
  let rec flat cid =
    match shape ctx cid with
    | C_union xs -> List.concat_map flat xs
    | _ -> [ cid ]
  in
  intern ctx (C_union (List.sort compare (List.concat_map flat inputs)))

let mk_output ctx ~file input =
  no_partial ctx "an output" input;
  intern ctx (C_output { file; input })

(* ---- the two sides ---------------------------------------------------- *)

type out = { file : string; cid : int; order : (string * bool) list }

let of_logical ctx (dag : Slogical.Dag.t) : out list =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some c -> c
    | None ->
        let c = node (Slogical.Dag.node dag id) in
        Hashtbl.add memo id c;
        c
  and node (n : Slogical.Dag.node) =
    match (n.Slogical.Dag.op, n.Slogical.Dag.children) with
    | Slogical.Logop.Extract { file; extractor; schema }, [] ->
        intern ctx (C_source { file; extractor; cols = Schema.names schema })
    | Slogical.Logop.Filter { pred }, [ c ] ->
        mk_filter ctx (conjuncts pred) (go c)
    | Slogical.Logop.Project { items }, [ c ] -> mk_project ctx items (go c)
    | Slogical.Logop.Group_by { keys; aggs }, [ c ] ->
        mk_group ctx ~keys ~aggs (go c)
    | Slogical.Logop.Group_by_local { keys; aggs }, [ c ] ->
        mk_partial ctx ~keys ~aggs (go c)
    | Slogical.Logop.Group_by_global { keys; aggs }, [ c ] ->
        mk_global ctx ~keys ~aggs (go c)
    | Slogical.Logop.Join { kind; pairs; residual }, [ l; r ] ->
        mk_join ctx ~kind ~pairs ~residual (go l) (go r)
    | Slogical.Logop.Union_all, [ l; r ] -> mk_union ctx [ go l; go r ]
    | Slogical.Logop.Spool, [ c ] -> go c
    | (Slogical.Logop.Output _ | Slogical.Logop.Sequence), _ ->
        raise (Unrepresentable "OUTPUT/SEQUENCE below the logical root")
    | op, cs ->
        raise
          (Unrepresentable
             (Printf.sprintf "logical %s with %d children"
                (Slogical.Logop.short_name op)
                (List.length cs)))
  in
  let output (n : Slogical.Dag.node) =
    match (n.Slogical.Dag.op, n.Slogical.Dag.children) with
    | Slogical.Logop.Output { file; order }, [ c ] ->
        { file; cid = mk_output ctx ~file (go c); order }
    | _ -> raise (Unrepresentable "logical root child is not an OUTPUT")
  in
  let root = Slogical.Dag.root dag in
  match root.Slogical.Dag.op with
  | Slogical.Logop.Sequence ->
      List.map (fun id -> output (Slogical.Dag.node dag id))
        root.Slogical.Dag.children
  | Slogical.Logop.Output _ -> [ output root ]
  | _ -> raise (Unrepresentable "logical root is not a sequence of outputs")

(* Canonical form of each output of a physical plan, with the delivered
   properties of the OUTPUT operator (for the SA058 ordering check).
   Spools and enforcers are transparent; a local/global aggregation pair
   collapses through {!mk_global}. *)
let of_physical ctx (plan : Sphys.Plan.t) : (out * Sphys.Props.t) list =
  let memo : int Sphys.Plan.Tbl.t = Sphys.Plan.Tbl.create 64 in
  let rec go (p : Sphys.Plan.t) =
    match Sphys.Plan.Tbl.find_opt memo p with
    | Some c -> c
    | None ->
        let c = node p in
        Sphys.Plan.Tbl.add memo p c;
        c
  and node (p : Sphys.Plan.t) =
    match (p.Sphys.Plan.op, p.Sphys.Plan.children) with
    | Sphys.Physop.P_extract { file; extractor; schema }, [] ->
        intern ctx (C_source { file; extractor; cols = Schema.names schema })
    | Sphys.Physop.P_filter { pred }, [ c ] ->
        mk_filter ctx (conjuncts pred) (go c)
    | Sphys.Physop.P_project { items }, [ c ] -> mk_project ctx items (go c)
    | Sphys.Physop.P_stream_agg { keys; aggs; scope }, [ c ] -> (
        match scope with
        | Sphys.Physop.Full -> mk_group ctx ~keys ~aggs (go c)
        | Sphys.Physop.Local -> mk_partial ctx ~keys ~aggs (go c)
        | Sphys.Physop.Global -> mk_global ctx ~keys ~aggs (go c))
    | ( ( Sphys.Physop.P_merge_join { kind; pairs; residual }
        | Sphys.Physop.P_hash_join { kind; pairs; residual } ),
        [ l; r ] ) ->
        mk_join ctx ~kind ~pairs ~residual (go l) (go r)
    | Sphys.Physop.P_union_all, [ l; r ] -> mk_union ctx [ go l; go r ]
    | Sphys.Physop.P_spool, [ c ] -> go c
    | ( ( Sphys.Physop.P_exchange _ | Sphys.Physop.P_merge_exchange _
        | Sphys.Physop.P_sort _ | Sphys.Physop.P_gather ),
        [ c ] ) ->
        go c
    | (Sphys.Physop.P_output _ | Sphys.Physop.P_sequence), _ ->
        raise (Unrepresentable "OUTPUT/SEQUENCE below the plan root")
    | op, cs ->
        raise
          (Unrepresentable
             (Printf.sprintf "physical %s with %d children"
                (Sphys.Physop.short_name op)
                (List.length cs)))
  in
  let output (o : Sphys.Plan.t) =
    match (o.Sphys.Plan.op, o.Sphys.Plan.children) with
    | Sphys.Physop.P_output { file }, [ c ] ->
        ( { file; cid = mk_output ctx ~file (go c); order = [] },
          o.Sphys.Plan.props )
    | _ -> raise (Unrepresentable "plan root child is not an OUTPUT")
  in
  match plan.Sphys.Plan.op with
  | Sphys.Physop.P_sequence -> List.map output plan.Sphys.Plan.children
  | Sphys.Physop.P_output _ -> [ output plan ]
  | _ -> raise (Unrepresentable "plan root is not a sequence of outputs")

(* ---- printing --------------------------------------------------------- *)

let rec pp_cid ctx ppf cid =
  match shape ctx cid with
  | C_source { file; extractor; _ } ->
      Fmt.pf ppf "source(%s USING %s)" file extractor
  | C_filter { preds; input } ->
      Fmt.pf ppf "filter(%s; %a)"
        (String.concat " AND " (List.map Expr.to_string preds))
        (pp_cid ctx) input
  | C_project { items; input } ->
      Fmt.pf ppf "project(%s; %a)"
        (String.concat ", "
           (List.map (fun (n, e) -> Fmt.str "%s=%a" n Expr.pp e) items))
        (pp_cid ctx) input
  | C_group { keys; aggs; input } | C_group_partial { keys; aggs; input } ->
      Fmt.pf ppf "%s(%s; %s; %a)"
        (match shape ctx cid with C_group_partial _ -> "partial" | _ -> "group")
        (String.concat "," keys)
        (String.concat ", "
           (List.map
              (fun (o, f, a) -> Fmt.str "%s(%a) AS %s" f Expr.pp a o)
              aggs))
        (pp_cid ctx) input
  | C_join { kind; pairs; residual; left; right } ->
      Fmt.pf ppf "%sjoin(%s%s; %a; %a)"
        (match kind with Slogical.Logop.Inner -> "" | _ -> "left")
        (String.concat " AND "
           (List.map (fun (a, b) -> a ^ "=" ^ b) pairs))
        (match residual with
        | None -> ""
        | Some e -> "; " ^ Expr.to_string e)
        (pp_cid ctx) left (pp_cid ctx) right
  | C_union xs ->
      Fmt.pf ppf "union(%a)" (Fmt.list ~sep:Fmt.comma (pp_cid ctx)) xs
  | C_output { file; input } ->
      Fmt.pf ppf "output(%s; %a)" file (pp_cid ctx) input

let to_string ctx cid = Fmt.str "%a" (pp_cid ctx) cid
