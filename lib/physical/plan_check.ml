open Relalg

(* Independent plan validity checker.

   Re-derives delivered properties bottom-up and verifies that every
   operator's input requirements hold: stream aggregation really receives
   input sorted on its keys and partitioned on a key subset, joins really
   receive co-partitioned (and, for merge joins, compatibly sorted) inputs,
   and so on.  Tests run every plan the optimizer emits through this
   checker, so a property-propagation bug cannot silently produce wrong
   plans that merely look cheap. *)

type violation = { where : string; what : string }

let v where what = { where; what }

let part_within (p : Partition.t) keys =
  match p with
  | Partition.Serial -> true
  | Partition.Hashed s ->
      (not (Colset.is_empty s))
      && List.for_all (fun c -> List.mem c keys) (Colset.to_list s)
  | Partition.Roundrobin -> false

(* The sort order's first [n] columns cover exactly the key set (any
   permutation of the keys is an acceptable grouping order). *)
let sorted_on_keys (sort : Sortorder.t) keys =
  let prefix = Sutil.Combi.take (List.length keys) (List.map fst sort) in
  List.length prefix = List.length keys
  (* set equality by mutual membership: no sorting on the hot path *)
  && List.for_all (fun c -> List.mem c keys) prefix
  && List.for_all (fun k -> List.mem k prefix) keys

(* Aligned co-partitioning for a join: some subset of the equality pairs
   maps the left partitioning set one-to-one onto the right one. *)
let co_partitioned pairs (l : Partition.t) (r : Partition.t) =
  match (l, r) with
  | Partition.Serial, Partition.Serial -> true
  | Partition.Hashed ls, Partition.Hashed rs ->
      (not (Colset.is_empty ls))
      && (let mapped =
            List.filter_map
              (fun (a, b) -> if Colset.mem a ls then Some b else None)
              pairs
          in
          (* every left partition column is a pair column, and the pairs
             involving them produce exactly the right set *)
          List.for_all
            (fun c -> List.exists (fun (a, _) -> a = c) pairs)
            (Colset.to_list ls)
          && Colset.equal (Colset.of_list mapped) rs
          && Colset.cardinal ls = List.length mapped)
  | _ -> false

(* Aligned sorting for a merge join: the two sort prefixes follow the same
   pair order. *)
let merge_sorted pairs (ls : Sortorder.t) (rs : Sortorder.t) =
  let k = List.length pairs in
  let lp = Sutil.Combi.take k ls and rp = Sutil.Combi.take k rs in
  List.length lp = k
  && List.length rp = k
  && List.for_all2
       (fun (lc, ld) (rc, rd) -> ld = rd && List.mem (lc, rc) pairs)
       lp rp

(* Column references and arity: everything that depends only on the
   operator and its children's schemas, so a caller building many nodes
   for one operator over the same groups can check it once.  [err] is
   called once per violation, in order. *)
let check_static op (child_schemas : Schema.t list) (err : string -> unit) =
  let require_cols schema cols what =
    List.iter
      (fun c ->
        if not (Schema.mem c schema) then
          err (Printf.sprintf "%s references missing column %s" what c))
      (Colset.to_list cols)
  in
  match (op, child_schemas) with
  | Physop.P_extract _, [] -> ()
  | Physop.P_extract _, _ -> err "extract must be a leaf"
  | Physop.P_filter { pred }, [ s ] ->
      require_cols s (Expr.columns pred) "filter predicate"
  | Physop.P_project { items }, [ s ] ->
      List.iter
        (fun (e, _) -> require_cols s (Expr.columns e) "projection item")
        items
  | Physop.P_stream_agg { keys; aggs; _ }, [ s ] ->
      require_cols s (Colset.of_list keys) "grouping key";
      List.iter
        (fun a -> require_cols s (Expr.columns a.Agg.arg) "aggregate argument")
        aggs
  | (Physop.P_merge_join { pairs; residual; _ } | Physop.P_hash_join { pairs; residual; _ }),
    [ ls; rs ] ->
      List.iter
        (fun (a, b) ->
          if not (Schema.mem a ls) then err ("missing left join column " ^ a);
          if not (Schema.mem b rs) then err ("missing right join column " ^ b))
        pairs;
      Option.iter
        (fun e -> require_cols (ls @ rs) (Expr.columns e) "join residual")
        residual
  | Physop.P_union_all, [ ls; rs ] ->
      if Schema.names ls <> Schema.names rs then err "union schema mismatch"
  | (Physop.P_spool | Physop.P_output _), [ _ ] -> ()
  | Physop.P_sequence, _ -> ()
  | Physop.P_exchange { cols }, [ s ] | Physop.P_merge_exchange { cols }, [ s ] ->
      require_cols s cols "exchange key";
      if Colset.is_empty cols then err "exchange on empty column set"
  | Physop.P_sort { order }, [ s ] ->
      require_cols s (Sortorder.columns order) "sort key"
  | Physop.P_gather, [ _ ] -> ()
  | op, _ ->
      err
        (Printf.sprintf "%s has %d children" (Physop.short_name op)
           (List.length child_schemas))

let static_ok op child_schemas =
  let ok = ref true in
  check_static op child_schemas (fun _ -> ok := false);
  !ok

(* The operator's input requirements against what its children deliver.
   [err] receives each violation's message as a thunk, so a caller that
   only needs the verdict never formats one.  Wrong arities are
   [check_static]'s to report. *)
let check_inputs op (child_props : Props.t list) (err : (unit -> string) -> unit) =
  match (op, child_props) with
  | Physop.P_stream_agg { keys; scope; _ }, [ p ] ->
      if not (sorted_on_keys p.Props.sort keys) then
        err (fun () ->
            Printf.sprintf "stream aggregation needs input sorted on keys; got %s"
              (Sortorder.to_string p.Props.sort));
      (match scope with
      | Physop.Local -> ()
      | Physop.Global | Physop.Full ->
          if not (part_within p.Props.part keys) then
            err (fun () ->
                Printf.sprintf
                  "global aggregation needs input partitioned within keys; got %s"
                  (Partition.to_string p.Props.part)))
  | (Physop.P_merge_join { pairs; _ } | Physop.P_hash_join { pairs; _ }), [ lp; rp ] ->
      if not (co_partitioned pairs lp.Props.part rp.Props.part) then
        err (fun () ->
            Printf.sprintf "join inputs not co-partitioned: %s vs %s"
              (Partition.to_string lp.Props.part)
              (Partition.to_string rp.Props.part));
      (match op with
      | Physop.P_merge_join _
        when not (merge_sorted pairs lp.Props.sort rp.Props.sort) ->
          err (fun () -> "merge join inputs not sorted on aligned join keys")
      | _ -> ())
  | _ -> ()

let inputs_ok op child_props =
  let ok = ref true in
  check_inputs op child_props (fun _ -> ok := false);
  !ok

let check_op (n : Plan.t) : violation list =
  let child_props = List.map (fun c -> c.Plan.props) n.Plan.children in
  let errs = ref [] in
  (* the operator is printed only once a violation is recorded: clean
     nodes, the overwhelming majority, never format it *)
  let err what = errs := v (Physop.to_string n.Plan.op) what :: !errs in
  check_static n.Plan.op (List.map (fun c -> c.Plan.schema) n.Plan.children) err;
  check_inputs n.Plan.op child_props (fun what -> err (what ()));
  (* delivered properties recorded on the node must match re-derivation *)
  let derived = Physop.deliver n.Plan.op n.Plan.schema child_props in
  if not (Props.equal derived n.Plan.props) then
    err
      (Printf.sprintf "delivered properties mismatch: recorded %s, derived %s"
         (Props.to_string n.Plan.props)
         (Props.to_string derived));
  !errs

let validate (t : Plan.t) : (unit, violation list) result =
  let errs = Plan.fold (fun acc n -> check_op n @ acc) [] t in
  match errs with [] -> Ok () | errs -> Error errs

let pp_violation ppf { where; what } = Fmt.pf ppf "%s: %s" where what

let violations_to_string errs =
  String.concat "\n" (List.map (fun e -> Fmt.str "%a" pp_violation e) errs)
