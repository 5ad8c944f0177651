open Relalg
open Sphys

(* Cross-layer semantic-equivalence auditor (the SA05x tentpole).

   The CSE optimizer's whole claim is that sharing subexpressions through
   spools changes cost, never semantics.  This pass proves it per output,
   statically, after every optimization:

   - SA050: each physical output's canonical algebra form ({!Canon}) must
     equal its logical output's, and the two sides must write the same
     file set;
   - SA051: every physical shape must have a logical meaning at all
     (orphan local/global aggregations, misplaced OUTPUTs);
   - SA058: an ORDER BY on a logical output must be delivered by the
     physical OUTPUT's input as serial placement plus a satisfying sort;
   - SA052: each output column's lineage ({!Lineage}) must coincide —
     same base columns, same derivations — an independent second signal
     next to the canonicalizer;
   - SA053: spools and enforcers must pass their input through untouched
     (schema preserved; they add physical properties, never content);
   - SA054: every column a spool's consumer reads must be produced by the
     shared producer. *)

(* ---- SA050 / SA051 / SA058: canonical equivalence --------------------- *)

(* [logical] is built once in [lctx]; each plan interns into a copy, so
   its terms get the ids, and a mismatch the wording, of a fresh context. *)
let canon_diags lctx logical (plan : Plan.t) =
  let ctx = Canon.copy lctx in
  match
    Result.map (fun louts -> (louts, Canon.of_physical ctx plan)) logical
  with
  | Error msg | (exception Canon.Unrepresentable msg) ->
      [ Diag.make ~code:"SA051" ~loc:Diag.Whole msg ]
  | Ok (louts, pouts) ->
      let lfiles =
        List.sort String.compare (List.map (fun o -> o.Canon.file) louts)
      in
      let pfiles =
        List.sort String.compare
          (List.map (fun (o, _) -> o.Canon.file) pouts)
      in
      let fileset =
        if lfiles = pfiles then []
        else
          [
            Diag.make ~code:"SA050" ~loc:Diag.Whole
              (Printf.sprintf
                 "output file sets differ: logical {%s}, physical {%s}"
                 (String.concat ", " lfiles)
                 (String.concat ", " pfiles));
          ]
      in
      let per_output =
        List.concat_map
          (fun (lo : Canon.out) ->
            match
              List.find_opt (fun (po, _) -> po.Canon.file = lo.Canon.file) pouts
            with
            | None -> []
            | Some (po, props) ->
                let equiv =
                  if po.Canon.cid = lo.Canon.cid then []
                  else
                    [
                      Diag.make ~code:"SA050" ~loc:(Diag.Output lo.Canon.file)
                        (Printf.sprintf
                           "canonical forms differ:@ logical %s@ physical %s"
                           (Canon.to_string ctx lo.Canon.cid)
                           (Canon.to_string ctx po.Canon.cid));
                    ]
                in
                let ordering =
                  match lo.Canon.order with
                  | [] -> []
                  | order ->
                      let required =
                        List.map
                          (fun (c, desc) ->
                            (c, if desc then Sortorder.Desc else Sortorder.Asc))
                          order
                      in
                      let serial = props.Props.part = Partition.Serial in
                      let sorted = Sortorder.prefix required props.Props.sort in
                      if serial && sorted then []
                      else
                        [
                          Diag.make ~code:"SA058"
                            ~loc:(Diag.Output lo.Canon.file)
                            (Printf.sprintf
                               "ORDER BY %s not delivered: output input is %s"
                               (Sortorder.to_string required)
                               (Props.to_string props));
                        ]
                in
                equiv @ ordering)
          louts
      in
      fileset @ per_output

(* ---- SA052: column lineage -------------------------------------------- *)

let lineage_diags ctx louts (plan : Plan.t) =
  let pouts = Lineage.of_plan ctx plan in
  List.concat_map
    (fun (file, lenv) ->
      match List.assoc_opt file pouts with
      | None -> [] (* missing output already reported by SA050 *)
      | Some penv ->
          let sorted env =
            List.sort (fun (a, _) (b, _) -> String.compare a b) env
          in
          if sorted lenv = sorted penv then []
          else
            let divergent =
              List.filter_map
                (fun (c, li) ->
                  match List.assoc_opt c penv with
                  | Some pi when pi = li -> None
                  | _ -> Some c)
                lenv
              @ List.filter_map
                  (fun (c, _) ->
                    if List.mem_assoc c lenv then None else Some c)
                  penv
            in
            [
              Diag.make ~code:"SA052" ~loc:(Diag.Output file)
                (Printf.sprintf
                   "column lineage diverges between logical and physical plans \
                    (columns: %s)"
                   (String.concat ", "
                      (List.sort_uniq String.compare divergent)));
            ])
    louts

(* ---- SA053 / SA054: spool & enforcer content preservation ------------- *)

(* Walk physically distinct plan nodes once. *)
let distinct_nodes (plan : Plan.t) =
  let seen = Plan.Tbl.create 64 in
  let rec go acc (n : Plan.t) =
    if Plan.Tbl.mem seen n then acc
    else (
      Plan.Tbl.add seen n ();
      List.fold_left go (n :: acc) n.Plan.children)
  in
  List.rev (go [] plan)

let enforcer_diags nodes =
  List.concat_map
    (fun (n : Plan.t) ->
      let transparent =
        Physop.is_enforcer n.Plan.op
        || match n.Plan.op with Physop.P_spool -> true | _ -> false
      in
      match (transparent, n.Plan.children) with
      | true, [ c ] when not (Schema.equal n.Plan.schema c.Plan.schema) ->
          [
            Diag.make ~code:"SA053"
              ~loc:(Diag.Operator (Physop.short_name n.Plan.op))
              (Printf.sprintf "schema (%s) differs from its input's (%s)"
                 (Schema.to_string n.Plan.schema)
                 (Schema.to_string c.Plan.schema));
          ]
      | _ -> [])
    nodes

(* Columns an operator reads from the child in slot [i]. *)
let columns_read (n : Plan.t) i =
  let side_schema j =
    match List.nth_opt n.Plan.children j with
    | Some c -> Schema.colset c.Plan.schema
    | None -> Colset.empty
  in
  match n.Plan.op with
  | Physop.P_filter { pred } -> Expr.columns pred
  | Physop.P_project { items } ->
      List.fold_left
        (fun acc (e, _) -> Colset.union acc (Expr.columns e))
        Colset.empty items
  | Physop.P_stream_agg { keys; aggs; _ } ->
      List.fold_left
        (fun acc (a : Agg.t) -> Colset.union acc (Expr.columns a.Agg.arg))
        (Colset.of_list keys) aggs
  | Physop.P_merge_join { pairs; residual; _ }
  | Physop.P_hash_join { pairs; residual; _ } ->
      let own = List.map (if i = 0 then fst else snd) pairs in
      let res =
        match residual with
        | None -> Colset.empty
        | Some e -> Colset.diff (Expr.columns e) (side_schema (1 - i))
      in
      Colset.union (Colset.of_list own) res
  | Physop.P_sort { order } -> Sortorder.columns order
  | Physop.P_exchange { cols } | Physop.P_merge_exchange { cols } -> cols
  | Physop.P_union_all | Physop.P_output _ -> Schema.colset n.Plan.schema
  | Physop.P_extract _ | Physop.P_spool | Physop.P_sequence | Physop.P_gather
    ->
      Colset.empty

let spool_read_diags nodes =
  List.concat_map
    (fun (n : Plan.t) ->
      List.concat
        (List.mapi
           (fun i (c : Plan.t) ->
             match c.Plan.op with
             | Physop.P_spool ->
                 let provided = Schema.colset c.Plan.schema in
                 let missing = Colset.diff (columns_read n i) provided in
                 if Colset.is_empty missing then []
                 else
                   [
                     Diag.make ~code:"SA054"
                       ~loc:(Diag.Operator (Physop.short_name n.Plan.op))
                       (Printf.sprintf
                          "reads %s not produced by spool (group %d)"
                          (Colset.to_string missing) c.Plan.group);
                   ]
             | _ -> [])
           n.Plan.children))
    nodes

(* ---- entry points ----------------------------------------------------- *)

(* The logical side is built once for all plans; lineage ids are plain
   structural interning, so one context serves them all. *)
let run ~(dag : Slogical.Dag.t) (plans : Plan.t list) : Diag.t list =
  let canon = Canon.create () in
  let logical =
    try Ok (Canon.of_logical canon dag)
    with Canon.Unrepresentable msg -> Error msg
  in
  let lineage = Lineage.create () in
  let lenvs = Lineage.of_dag lineage dag in
  List.concat_map
    (fun plan ->
      canon_diags canon logical plan
      @ lineage_diags lineage lenvs plan
      @
      let nodes = distinct_nodes plan in
      enforcer_diags nodes @ spool_read_diags nodes)
    plans
