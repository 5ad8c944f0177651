open Relalg

(* Physical operators.  The [`Local]/[`Global]/[`Full] scope of an
   aggregation distinguishes per-machine pre-aggregation, combination of
   partials, and single-stage aggregation. *)

type agg_scope = Local | Global | Full

type t =
  | P_extract of { file : string; extractor : string; schema : Schema.t }
  | P_filter of { pred : Expr.t }
  | P_project of { items : (Expr.t * string) list }
  | P_stream_agg of { keys : string list; aggs : Agg.t list; scope : agg_scope }
  | P_merge_join of {
      kind : Slogical.Logop.join_kind;
      pairs : (string * string) list;
      residual : Expr.t option;
    }
  | P_hash_join of {
      kind : Slogical.Logop.join_kind;
      pairs : (string * string) list;
      residual : Expr.t option;
    }
  | P_union_all
  | P_spool
  | P_output of { file : string }
  | P_sequence
  (* enforcers *)
  | P_exchange of { cols : Colset.t } (* hash repartition; destroys sort *)
  | P_merge_exchange of { cols : Colset.t } (* repartition, merging sorted runs *)
  | P_sort of { order : Sortorder.t }
  | P_gather (* merge all partitions onto one machine, preserving sort *)

(* Derive the delivered physical properties of a plan rooted at [op] from
   its children's delivered properties (UpdateDlvdProp of Algorithm 2).
   The output column set is built only for the operators that restrict to
   it, unless the caller passes it. *)
let deliver ?out_cols (op : t) (schema : Schema.t) (children : Props.t list) :
    Props.t =
  let child () =
    match children with
    | [ c ] -> c
    | _ -> invalid_arg "Physop.deliver: expected one child"
  in
  let out_cols () =
    match out_cols with Some c -> c | None -> Schema.colset schema
  in
  match op with
  | P_extract _ -> Props.make Partition.Roundrobin Sortorder.empty
  | P_filter _ | P_spool | P_output _ -> child ()
  | P_project { items } ->
      (* map properties through simple column renames *)
      let mapping =
        List.filter_map
          (fun (e, name) ->
            match e with Expr.Col src -> Some (src, name) | _ -> None)
          items
      in
      let f src = List.assoc_opt src mapping in
      let c = child () in
      {
        Props.part = Partition.rename f c.Props.part;
        sort = Sortorder.rename f c.Props.sort;
      }
  | P_stream_agg { keys = _; aggs = _; scope = _ } ->
      (* grouping consumes rows in sort order: both the partitioning (over
         key columns) and the sort order survive, restricted to output
         columns *)
      Props.restrict (out_cols ()) (child ())
  | P_merge_join _ -> (
      match children with
      | [ l; _ ] -> Props.restrict (out_cols ()) l
      | _ -> invalid_arg "Physop.deliver: join expects two children")
  | P_hash_join _ -> (
      match children with
      | [ l; _ ] ->
          Props.restrict (out_cols ()) { l with Props.sort = Sortorder.empty }
      | _ -> invalid_arg "Physop.deliver: join expects two children")
  | P_union_all -> (
      (* co-partitioned inputs stay partitioned (per-machine concatenation
         moves no rows); order is lost by interleaving *)
      match children with
      | [ l; r ]
        when (match (l.Props.part, r.Props.part) with
             | Partition.Hashed a, Partition.Hashed b -> Colset.equal a b
             | _ -> false) ->
          Props.make l.Props.part Sortorder.empty
      | _ -> Props.make Partition.Roundrobin Sortorder.empty)
  | P_sequence -> Props.make Partition.Serial Sortorder.empty
  | P_exchange { cols } -> Props.make (Partition.Hashed cols) Sortorder.empty
  | P_merge_exchange { cols } ->
      Props.make (Partition.Hashed cols) (child ()).Props.sort
  | P_sort { order } -> { (child ()) with Props.sort = order }
  | P_gather -> Props.make Partition.Serial (child ()).Props.sort

let is_enforcer = function
  | P_exchange _ | P_merge_exchange _ | P_sort _ | P_gather -> true
  | _ -> false

let short_name = function
  | P_extract _ -> "Extract"
  | P_filter _ -> "Filter"
  | P_project _ -> "Project"
  | P_stream_agg { scope = Local; _ } -> "StreamAgg(Local)"
  | P_stream_agg { scope = Global; _ } -> "StreamAgg(Global)"
  | P_stream_agg { scope = Full; _ } -> "StreamAgg"
  | P_merge_join { kind = Slogical.Logop.Inner; _ } -> "MergeJoin"
  | P_merge_join _ -> "LeftMergeJoin"
  | P_hash_join { kind = Slogical.Logop.Inner; _ } -> "HashJoin"
  | P_hash_join _ -> "LeftHashJoin"
  | P_union_all -> "UnionAll"
  | P_spool -> "Spool"
  | P_output _ -> "Output"
  | P_sequence -> "Sequence"
  | P_exchange _ -> "Repartition"
  | P_merge_exchange _ -> "SortMergeExchange"
  | P_sort _ -> "Sort"
  | P_gather -> "Gather"

let pp ppf op =
  match op with
  | P_extract { file; _ } -> Fmt.pf ppf "Extract(%s)" file
  | P_filter { pred } -> Fmt.pf ppf "Filter(%a)" Expr.pp pred
  | P_project { items } ->
      Fmt.pf ppf "Project(%s)"
        (String.concat ", "
           (List.map
              (fun (e, n) ->
                match e with
                | Expr.Col c when c = n -> c
                | _ -> Fmt.str "%a AS %s" Expr.pp e n)
              items))
  | P_stream_agg { keys; _ } ->
      Fmt.pf ppf "%s(%s)" (short_name op) (String.concat ", " keys)
  | P_merge_join { pairs; _ } | P_hash_join { pairs; _ } ->
      Fmt.pf ppf "%s(%s)" (short_name op)
        (String.concat " AND "
           (List.map (fun (a, b) -> Fmt.str "%s=%s" a b) pairs))
  | P_union_all | P_spool | P_sequence | P_gather ->
      Fmt.string ppf (short_name op)
  | P_output { file } -> Fmt.pf ppf "Output(%s)" file
  | P_exchange { cols } -> Fmt.pf ppf "Repartition%a" Colset.pp cols
  | P_merge_exchange { cols } ->
      Fmt.pf ppf "SortMergeExchange%a" Colset.pp cols
  | P_sort { order } -> Fmt.pf ppf "Sort%a" Sortorder.pp order

let to_string op = Fmt.str "%a" pp op
