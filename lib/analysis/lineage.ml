open Relalg

(* Column-level provenance for the cross-layer audit (SA052/SA055).

   Every column of every intermediate result is given an interned lineage
   id: either a base-table column ([file.column] of an EXTRACT) or a
   derivation — an operator label over argument lineage ids.  The same
   interner serves the logical DAG, the physical plan and the memo, so
   "this physical output column is computed from the same sources, by the
   same operations, as the logical one" is an integer comparison.

   This is an independent second signal next to {!Canon}: lineage is
   computed directly on the raw structures (no normalization pass shared
   with the canonicalizer), so a bug in one machinery cannot hide the
   other's finding.  Purely physical operators (spools, enforcers) are
   lineage-transparent, and a global aggregation directly combining a
   matching local pre-aggregation collapses to the single logical
   aggregation it implements — any mismatched pairing falls through to
   the naive nested derivation and then fails the comparison. *)

type term = Base of string * string | Derived of string * int list

type ctx = { ids : (term, int) Hashtbl.t; mutable next : int }

let create () = { ids = Hashtbl.create 256; next = 0 }

let intern ctx t =
  match Hashtbl.find_opt ctx.ids t with
  | Some i -> i
  | None ->
      let i = ctx.next in
      ctx.next <- i + 1;
      Hashtbl.add ctx.ids t i;
      i

let base ctx ~file ~column = intern ctx (Base (file, column))
let derived ctx label args = intern ctx (Derived (label, args))

(* An environment: lineage id per column name, in schema order. *)
type env = (string * int) list

let rec of_expr ctx (env : env) (e : Expr.t) : int =
  let go = of_expr ctx env in
  match e with
  | Expr.Col c -> (
      match List.assoc_opt c env with
      | Some i -> i
      | None -> derived ctx ("missing:" ^ c) [])
  | Expr.Lit v -> derived ctx ("lit:" ^ Fmt.str "%a" Value.pp v) []
  | Expr.Binop (op, a, b) ->
      derived ctx ("binop:" ^ Fmt.str "%a" Expr.pp_binop op) [ go a; go b ]
  | Expr.Cmp (op, a, b) ->
      derived ctx ("cmp:" ^ Fmt.str "%a" Expr.pp_cmpop op) [ go a; go b ]
  | Expr.And (a, b) -> derived ctx "and" [ go a; go b ]
  | Expr.Or (a, b) -> derived ctx "or" [ go a; go b ]
  | Expr.Not a -> derived ctx "not" [ go a ]

let env_project ctx items (env : env) : env =
  List.map (fun (e, name) -> (name, of_expr ctx env e)) items

let env_group ctx ~keys ~(aggs : Agg.t list) (env : env) : env =
  let key_cols =
    List.map
      (fun k ->
        ( k,
          match List.assoc_opt k env with
          | Some i -> i
          | None -> derived ctx ("missing:" ^ k) [] ))
      keys
  in
  let agg_cols =
    List.map
      (fun (a : Agg.t) ->
        ( a.Agg.output,
          derived ctx
            ("agg:" ^ Agg.func_name a.Agg.func)
            [ of_expr ctx env a.Agg.arg ] ))
      aggs
  in
  key_cols @ agg_cols

let env_union ctx (l : env) (r : env) : env =
  if List.length l = List.length r then
    List.map2 (fun (n, li) (_, ri) -> (n, derived ctx "union" [ li; ri ])) l r
  else List.map (fun (n, li) -> (n, derived ctx "union:odd" [ li ])) l

(* Does [globals] combine [locals] exactly as [Agg.global_combinator]
   prescribes? *)
let combines (locals : Agg.t list) (globals : Agg.t list) =
  List.length locals = List.length globals
  && List.for_all2 (fun l g -> Agg.global_combinator l = g) locals globals

(* ---- logical DAG ------------------------------------------------------ *)

(* Per-output lineage environments of the bound DAG, keyed by output
   file. *)
let of_dag ctx (dag : Slogical.Dag.t) : (string * env) list =
  let memo : (int, env) Hashtbl.t = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some e -> e
    | None ->
        let e = node (Slogical.Dag.node dag id) in
        Hashtbl.add memo id e;
        e
  and node (n : Slogical.Dag.node) : env =
    match (n.Slogical.Dag.op, n.Slogical.Dag.children) with
    | Slogical.Logop.Extract { file; schema; _ }, [] ->
        List.map (fun c -> (c, base ctx ~file ~column:c)) (Schema.names schema)
    | Slogical.Logop.Filter _, [ c ]
    | Slogical.Logop.Spool, [ c ]
    | Slogical.Logop.Output _, [ c ] ->
        go c
    | Slogical.Logop.Project { items }, [ c ] -> env_project ctx items (go c)
    | Slogical.Logop.Group_by { keys; aggs }, [ c ]
    | Slogical.Logop.Group_by_local { keys; aggs }, [ c ] ->
        env_group ctx ~keys ~aggs (go c)
    | Slogical.Logop.Group_by_global { keys; aggs }, [ c ] -> (
        (* the binder never emits global aggs; handled for completeness *)
        let cn = Slogical.Dag.node dag c in
        match (cn.Slogical.Dag.op, cn.Slogical.Dag.children) with
        | Slogical.Logop.Group_by_local { keys = lk; aggs = la }, [ cc ]
          when lk = keys && combines la aggs ->
            env_group ctx ~keys ~aggs:la (go cc)
        | _ -> env_group ctx ~keys ~aggs (go c))
    | Slogical.Logop.Join _, [ l; r ] -> go l @ go r
    | Slogical.Logop.Union_all, [ l; r ] -> env_union ctx (go l) (go r)
    | _, _ -> []
  in
  let root = Slogical.Dag.root dag in
  let outputs =
    match root.Slogical.Dag.op with
    | Slogical.Logop.Sequence ->
        List.map (Slogical.Dag.node dag) root.Slogical.Dag.children
    | _ -> [ root ]
  in
  List.filter_map
    (fun (n : Slogical.Dag.node) ->
      match n.Slogical.Dag.op with
      | Slogical.Logop.Output { file; _ } -> Some (file, node n)
      | _ -> None)
    outputs

(* ---- physical plan ---------------------------------------------------- *)

(* Skip lineage-transparent physical nodes (spools and enforcers). *)
let rec strip (p : Sphys.Plan.t) =
  match (p.Sphys.Plan.op, p.Sphys.Plan.children) with
  | ( ( Sphys.Physop.P_spool | Sphys.Physop.P_exchange _
      | Sphys.Physop.P_merge_exchange _ | Sphys.Physop.P_sort _
      | Sphys.Physop.P_gather ),
      [ c ] ) ->
      strip c
  | _ -> p

(* Per-output lineage environments of a physical plan, keyed by output
   file. *)
let of_plan ctx (plan : Sphys.Plan.t) : (string * env) list =
  let memo : env Sphys.Plan.Tbl.t = Sphys.Plan.Tbl.create 64 in
  let rec go (p : Sphys.Plan.t) =
    match Sphys.Plan.Tbl.find_opt memo p with
    | Some e -> e
    | None ->
        let e = node p in
        Sphys.Plan.Tbl.add memo p e;
        e
  and node (p : Sphys.Plan.t) : env =
    match (p.Sphys.Plan.op, p.Sphys.Plan.children) with
    | Sphys.Physop.P_extract { file; schema; _ }, [] ->
        List.map (fun c -> (c, base ctx ~file ~column:c)) (Schema.names schema)
    | Sphys.Physop.P_filter _, [ c ]
    | Sphys.Physop.P_spool, [ c ]
    | Sphys.Physop.P_output _, [ c ]
    | Sphys.Physop.P_exchange _, [ c ]
    | Sphys.Physop.P_merge_exchange _, [ c ]
    | Sphys.Physop.P_sort _, [ c ]
    | Sphys.Physop.P_gather, [ c ] ->
        go c
    | Sphys.Physop.P_project { items }, [ c ] -> env_project ctx items (go c)
    | Sphys.Physop.P_stream_agg { keys; aggs; scope }, [ c ] -> (
        match scope with
        | Sphys.Physop.Local | Sphys.Physop.Full ->
            env_group ctx ~keys ~aggs (go c)
        | Sphys.Physop.Global -> (
            match ((strip c).Sphys.Plan.op, (strip c).Sphys.Plan.children) with
            | ( Sphys.Physop.P_stream_agg
                  { keys = lk; aggs = la; scope = Sphys.Physop.Local },
                [ cc ] )
              when lk = keys && combines la aggs ->
                env_group ctx ~keys ~aggs:la (go cc)
            | _ -> env_group ctx ~keys ~aggs (go c)))
    | ( (Sphys.Physop.P_merge_join _ | Sphys.Physop.P_hash_join _),
        [ l; r ] ) ->
        go l @ go r
    | Sphys.Physop.P_union_all, [ l; r ] -> env_union ctx (go l) (go r)
    | _, _ -> []
  in
  let outputs =
    match plan.Sphys.Plan.op with
    | Sphys.Physop.P_sequence -> plan.Sphys.Plan.children
    | _ -> [ plan ]
  in
  List.filter_map
    (fun (o : Sphys.Plan.t) ->
      match o.Sphys.Plan.op with
      | Sphys.Physop.P_output { file } -> Some (file, go o)
      | _ -> None)
    outputs

(* ---- memo ------------------------------------------------------------- *)

exception Cyclic

(* SA055: every expression of a memo group must assign its columns the
   same lineage — a fingerprint merge of inequivalent groups, or an
   exploration rule changing content, shows up as two expressions
   deriving different provenance for one column.  The local/global pair
   added by the aggregation-split rule collapses natively, so a healthy
   memo is silent.  Cyclic memos are skipped (SA001 owns them). *)
let of_memo ctx (memo : Smemo.Memo.t) : Diag.t list =
  let envs : (int, env) Hashtbl.t = Hashtbl.create 64 in
  let visiting : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let diags = ref [] in
  let rec group_env gid : env =
    if gid < 0 || gid >= Smemo.Memo.size memo then []
    else
      match Hashtbl.find_opt envs gid with
      | Some e -> e
      | None ->
          if Hashtbl.mem visiting gid then raise Cyclic;
          Hashtbl.add visiting gid ();
          let g = Smemo.Memo.group memo gid in
          let env =
            match g.Smemo.Memo.exprs with
            | [] -> []
            | e0 :: rest ->
                let env0 = expr_env e0 in
                List.iteri
                  (fun i e ->
                    let env' = expr_env e in
                    if env' <> env0 then
                      diags :=
                        Diag.make ~code:"SA055" ~loc:(Diag.Group gid)
                          (Printf.sprintf
                             "expression %d (%s) disagrees with %s on column \
                              lineage"
                             (i + 1)
                             (Slogical.Logop.short_name e.Smemo.Memo.mop)
                             (Slogical.Logop.short_name e0.Smemo.Memo.mop))
                        :: !diags)
                  rest;
                env0
          in
          Hashtbl.remove visiting gid;
          Hashtbl.add envs gid env;
          env
  and expr_env (e : Smemo.Memo.mexpr) : env =
    match (e.Smemo.Memo.mop, e.Smemo.Memo.children) with
    | Slogical.Logop.Extract { file; schema; _ }, [] ->
        List.map (fun c -> (c, base ctx ~file ~column:c)) (Schema.names schema)
    | Slogical.Logop.Filter _, [ c ]
    | Slogical.Logop.Spool, [ c ]
    | Slogical.Logop.Output _, [ c ] ->
        group_env c
    | Slogical.Logop.Project { items }, [ c ] ->
        env_project ctx items (group_env c)
    | Slogical.Logop.Group_by { keys; aggs }, [ c ]
    | Slogical.Logop.Group_by_local { keys; aggs }, [ c ] ->
        env_group ctx ~keys ~aggs (group_env c)
    | Slogical.Logop.Group_by_global { keys; aggs }, [ c ] -> (
        (* combine through the local group the split rule created *)
        let local =
          if c >= 0 && c < Smemo.Memo.size memo then
            List.find_opt
              (fun (e' : Smemo.Memo.mexpr) ->
                match e'.Smemo.Memo.mop with
                | Slogical.Logop.Group_by_local { keys = lk; aggs = la } ->
                    lk = keys && combines la aggs
                | _ -> false)
              (Smemo.Memo.group memo c).Smemo.Memo.exprs
          else None
        in
        match local with
        | Some { Smemo.Memo.mop = Slogical.Logop.Group_by_local { aggs = la; _ };
                 children = [ cc ] } ->
            env_group ctx ~keys ~aggs:la (group_env cc)
        | _ -> env_group ctx ~keys ~aggs (group_env c))
    | Slogical.Logop.Join _, [ l; r ] -> group_env l @ group_env r
    | Slogical.Logop.Union_all, [ l; r ] ->
        env_union ctx (group_env l) (group_env r)
    | _, _ -> []
  in
  let live = Smemo.Memo.reachable memo in
  Smemo.Memo.iter_groups memo (fun g ->
      if live.(g.Smemo.Memo.id) then (
        try ignore (group_env g.Smemo.Memo.id)
        with Cyclic -> Hashtbl.reset visiting));
  List.rev !diags
