(** Physical plans.

    A plan node records the memo group it implements so DAG-aware costing
    and printing can recognize two references to one shared (spool)
    subplan. A node keeps its own [op_cost] and its region summary
    ([sbase]/[srefs]); the cost of a plan is the deduplicated
    [Scost.Dagcost.cached_cost] served from those summaries. *)

type t = {
  op : Physop.t;
  children : t list;
  group : int;  (** memo group this plan implements; [-1] when synthetic *)
  schema : Relalg.Schema.t;
  props : Props.t;  (** delivered physical properties *)
  stats : Slogical.Stats.t;  (** estimated output statistics *)
  op_cost : float;  (** this operator's own estimated cost *)
  sbase : float;
      (** operator-cost total of the node's region — the sub-DAG reachable
          without crossing a spool boundary; spool descendants contribute
          nothing. On a spool-free plan it is the tree total: [op_cost]
          plus the children's [sbase], in that fold order. *)
  srefs : (t * int) list;
      (** distinct spool plans referenced by the region (physical
          identity), with reference counts, in first-reference order *)
}

(** The region summary a child contributes to its parent: a spool child is
    a boundary ([(0.0, [(child, 1)])]); any other child passes its own
    [sbase]/[srefs] through. *)
val region : t -> float * (t * int) list

(** Build a node, deriving [props] via {!Physop.deliver} (which takes
    [out_cols]) and the region summary from the children's. *)
val make :
  ?out_cols:Relalg.Colset.t ->
  op:Physop.t ->
  children:t list ->
  group:int ->
  schema:Relalg.Schema.t ->
  stats:Slogical.Stats.t ->
  op_cost:float ->
  unit ->
  t

(** Hash tables keyed by physical identity ([==]): a walk that records
    visited nodes in one visits each distinct node of a plan DAG once,
    at O(1) per lookup. *)
module Tbl : Hashtbl.S with type key = t

(** Fold over every node, children before parents; shared subtrees are
    visited once per reference. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
