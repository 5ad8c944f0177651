open Relalg
open Sphys

(* Implementation rules and DetChildProp (Algorithm 2, lines 8-12): for a
   logical group expression under a required property set, produce the
   physical alternatives together with the properties each one requires
   from its children.  Alternatives whose requirement cannot be pushed down
   are simply not generated -- the enforcer machinery covers those shapes
   by optimizing the same group under a weaker requirement and patching on
   top. *)

type alt = { op : Physop.t; child_reqs : Reqprops.t list }

(* Intersect a parent partitioning requirement with "within [keys]" -- the
   input condition of a global/full aggregation.  [None] = incompatible. *)
let part_within_keys (req : Reqprops.part_req) keyset :
    Reqprops.part_req option =
  match req with
  | Reqprops.Any -> Some (Reqprops.Hash_subset keyset)
  | Reqprops.Serial_req -> Some Reqprops.Serial_req
  | Reqprops.Hash_subset c ->
      let i = Colset.inter c keyset in
      if Colset.is_empty i then None else Some (Reqprops.Hash_subset i)
  | Reqprops.Hash_exact e ->
      if Colset.subset e keyset then Some (Reqprops.Hash_exact e) else None

(* Partitioning requirement passed through an operator that preserves its
   input partitioning over [keys] (local aggregation). *)
let part_through_keys (req : Reqprops.part_req) keyset :
    Reqprops.part_req option =
  match req with
  | Reqprops.Any -> Some Reqprops.Any
  | _ -> part_within_keys req keyset

(* Grouping sort order honoring the parent's requirement: the parent's
   required order (when it only mentions keys) extended with the remaining
   keys in canonical order.  This is what makes e.g. GB(A,B,C) deliver a
   (B,A,C) order when the consumer groups on (B,A) -- the Figure 8
   behaviour. *)
let grouping_sort (req_sort : Sortorder.t) keys : Sortorder.t option =
  let keyset = Colset.of_list keys in
  if not (Colset.subset (Sortorder.columns req_sort) keyset) then None
  else
    let prefix_cols = Sortorder.columns req_sort in
    let remaining =
      List.filter (fun k -> not (Colset.mem k prefix_cols)) keys
    in
    Some (req_sort @ Sortorder.asc (List.sort String.compare remaining))

let agg_alts ~keys ~aggs ~(scope : Physop.agg_scope) (req : Reqprops.t) :
    alt list =
  let keyset = Colset.of_list keys in
  let part =
    match scope with
    | Physop.Local -> part_through_keys req.Reqprops.part keyset
    | (Physop.Global | Physop.Full) when keys = [] ->
        (* grand total: all rows must meet on one machine *)
        Some Reqprops.Serial_req
    | Physop.Global | Physop.Full -> part_within_keys req.Reqprops.part keyset
  in
  match (part, grouping_sort req.Reqprops.sort keys) with
  | Some part, Some sort ->
      [
        {
          op = Physop.P_stream_agg { keys; aggs; scope };
          child_reqs = [ Reqprops.make part sort ];
        };
      ]
  | _ -> []

(* Requirement mapped backwards through a projection: output columns that
   are simple renames map to their source; anything else blocks the
   push-down. *)
let project_pushdown items (req : Reqprops.t) : Reqprops.t option =
  let sources =
    List.filter_map
      (fun (e, name) ->
        match e with Expr.Col src -> Some (name, src) | _ -> None)
      items
  in
  let back name = List.assoc_opt name sources in
  let part =
    match req.Reqprops.part with
    | Reqprops.Any -> Some Reqprops.Any
    | Reqprops.Serial_req -> Some Reqprops.Serial_req
    | Reqprops.Hash_subset c ->
        let mapped = List.filter_map back (Colset.to_list c) in
        if mapped = [] then None
        else Some (Reqprops.Hash_subset (Colset.of_list mapped))
    | Reqprops.Hash_exact e ->
        let mapped = List.map back (Colset.to_list e) in
        if List.for_all Option.is_some mapped then
          Some (Reqprops.Hash_exact (Colset.of_list (List.map Option.get mapped)))
        else None
  in
  let sort =
    let mapped =
      List.map (fun (c, d) -> (back c, d)) req.Reqprops.sort
    in
    if List.for_all (fun (c, _) -> Option.is_some c) mapped then
      Some (List.map (fun (c, d) -> (Option.get c, d)) mapped)
    else None
  in
  match (part, sort) with
  | Some part, Some sort -> Some (Reqprops.make part sort)
  | _ -> None

(* Join-key subsets considered for co-partitioning.  Capped to keep the
   space small for wide keys. *)
let join_key_subsets pairs =
  if List.length pairs <= 3 then Sutil.Combi.nonempty_subsets pairs
  else
    [ pairs ] @ List.map (fun p -> [ p ]) pairs

let join_alts ~kind ~pairs ~residual (req : Reqprops.t) : alt list =
  ignore req;
  List.concat_map
    (fun (subset : (string * string) list) ->
      let lset = Colset.of_list (List.map fst subset) in
      let rset = Colset.of_list (List.map snd subset) in
      let hash =
        {
          op = Physop.P_hash_join { kind; pairs; residual };
          child_reqs =
            [
              Reqprops.make (Reqprops.Hash_exact lset) Sortorder.empty;
              Reqprops.make (Reqprops.Hash_exact rset) Sortorder.empty;
            ];
        }
      in
      (* merge join: sorted on the subset's pairs in a canonical order *)
      let ordered =
        List.sort (fun (a, _) (b, _) -> String.compare a b) subset
      in
      let merge =
        {
          op = Physop.P_merge_join { kind; pairs; residual };
          child_reqs =
            [
              Reqprops.make (Reqprops.Hash_exact lset)
                (Sortorder.asc (List.map fst ordered));
              Reqprops.make (Reqprops.Hash_exact rset)
                (Sortorder.asc (List.map snd ordered));
            ];
        }
      in
      [ hash; merge ])
    (join_key_subsets pairs)

(* All implementation alternatives of one group expression under [req]. *)
let alternatives (e : Smemo.Memo.mexpr) (req : Reqprops.t) : alt list =
  match e.Smemo.Memo.mop with
  | Slogical.Logop.Extract { file; extractor; schema } ->
      [ { op = Physop.P_extract { file; extractor; schema }; child_reqs = [] } ]
  | Slogical.Logop.Filter { pred } ->
      [ { op = Physop.P_filter { pred }; child_reqs = [ req ] } ]
  | Slogical.Logop.Project { items } -> (
      match project_pushdown items req with
      | Some creq ->
          [ { op = Physop.P_project { items }; child_reqs = [ creq ] } ]
      | None -> [])
  | Slogical.Logop.Group_by { keys; aggs } ->
      agg_alts ~keys ~aggs ~scope:Physop.Full req
  | Slogical.Logop.Group_by_local { keys; aggs } ->
      agg_alts ~keys ~aggs ~scope:Physop.Local req
  | Slogical.Logop.Group_by_global { keys; aggs } ->
      agg_alts ~keys ~aggs ~scope:Physop.Global req
  | Slogical.Logop.Join { kind; pairs; residual } ->
      join_alts ~kind ~pairs ~residual req
  | Slogical.Logop.Union_all ->
      let plain =
        { op = Physop.P_union_all; child_reqs = [ Reqprops.none; Reqprops.none ] }
      in
      (* co-partitioned union: satisfy a partitioning requirement by
         requiring it of both inputs (per-machine concatenation) *)
      let copart =
        match req.Reqprops.part with
        | Reqprops.Hash_exact e when Sortorder.is_empty req.Reqprops.sort ->
            let creq = Reqprops.make (Reqprops.Hash_exact e) Sortorder.empty in
            [ { op = Physop.P_union_all; child_reqs = [ creq; creq ] } ]
        | _ -> []
      in
      plain :: copart
  | Slogical.Logop.Spool ->
      [ { op = Physop.P_spool; child_reqs = [ req ] } ]
  | Slogical.Logop.Output { file; order } ->
      (* ORDER BY requires a globally ordered result: the child must be
         serial and sorted (the gather + sort enforcers provide it) *)
      let creq =
        match order with
        | [] -> Reqprops.none
        | o ->
            Reqprops.make Reqprops.Serial_req
              (List.map
                 (fun (c, desc) ->
                   (c, if desc then Sortorder.Desc else Sortorder.Asc))
                 o)
      in
      [ { op = Physop.P_output { file }; child_reqs = [ creq ] } ]
  | Slogical.Logop.Sequence ->
      [
        {
          op = Physop.P_sequence;
          child_reqs = List.map (fun _ -> Reqprops.none) e.Smemo.Memo.children;
        };
      ]
