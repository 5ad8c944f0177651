open Relalg

(* Physical plans.  A plan node records the memo group it implements so
   that DAG-aware costing can recognize two references to the same shared
   (spool) subplan.  A node keeps its own operator cost and a summary of
   its region; [Dagcost] in the cost library prices a plan from these,
   paying each shared spool's production once.

   [sbase]/[srefs] summarize the node's *region*: the sub-DAG reachable
   without crossing a spool boundary.  [sbase] is the total operator cost
   of the region (spool descendants contribute nothing); [srefs] lists the
   distinct spool plans the region references (by physical identity) with
   their reference counts.  A spool node's own summary describes its inner
   production region -- the collapse to a single reference happens at the
   consumer.  Cached at construction, these let [Dagcost] compute the
   deduplicated cost by closing over O(#spools) region summaries instead
   of re-walking the whole DAG on every plan comparison. *)

type t = {
  op : Physop.t;
  children : t list;
  group : int; (* memo group this plan implements; -1 when synthetic *)
  schema : Schema.t;
  props : Props.t; (* delivered physical properties *)
  stats : Slogical.Stats.t; (* estimated output stats *)
  op_cost : float; (* this operator's own estimated cost *)
  sbase : float; (* region operator-cost total (spools excluded) *)
  srefs : (t * int) list; (* spools referenced by the region, with counts *)
  id : int; (* process-wide, from [make]: the node's identity for [Tbl] *)
}

(* The region a child contributes to its parent: a spool child is a
   boundary (one reference, no cost); any other child passes its own
   region through. *)
let region (c : t) =
  match c.op with
  | Physop.P_spool -> (0.0, [ (c, 1) ])
  | _ -> (c.sbase, c.srefs)

let add_refs acc refs =
  List.fold_left
    (fun acc (s, k) ->
      let rec add = function
        | [] -> [ (s, k) ]
        | (s', k') :: rest when s' == s -> (s', k' + k) :: rest
        | p :: rest -> p :: add rest
      in
      add acc)
    acc refs

let next_id = Atomic.make 0

let make ?out_cols ~op ~children ~group ~schema ~stats ~op_cost () =
  let props =
    Physop.deliver ?out_cols op schema (List.map (fun c -> c.props) children)
  in
  (* the fold order of [Dagcost.cost]'s walk, so on a spool-free plan
     [sbase] is that cost bit for bit *)
  let sbase =
    List.fold_left (fun acc c -> acc +. fst (region c)) op_cost children
  in
  let srefs =
    List.fold_left (fun acc c -> add_refs acc (snd (region c))) [] children
  in
  let id = Atomic.fetch_and_add next_id 1 in
  { op; children; group; schema; props; stats; op_cost; sbase; srefs; id }

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash n = n.id
end)

let iter_distinct f roots =
  let seen = Tbl.create 64 in
  let rec go n =
    if not (Tbl.mem seen n) then (
      Tbl.add seen n ();
      List.iter go n.children;
      f n)
  in
  List.iter go roots

(* Fold over every node (parents after children); shared subtrees are
   visited once per reference. *)
let rec fold f acc t =
  let acc = List.fold_left (fold f) acc t.children in
  f acc t
