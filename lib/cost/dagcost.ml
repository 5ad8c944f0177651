open Sphys

(* DAG-aware plan costing.

   The cost of a plan that shares spooled subexpressions counts each
   spool *producer* once and charges each consumer a read of the
   materialized result.  The search compares candidates on [cached_cost]
   (through [Optimizer.plan_cost]), settles near-ties on the walking
   [cost], and bounds a partial candidate with the same region closure
   over its completed children.  For spool-free plans [cost] and
   [cached_cost] coincide bit for bit. *)

(* Two consumers share one materialization exactly when they reference the
   *same* spool plan (winner memoization hands every consumer with the
   same pinned properties the identical plan value); a physically distinct
   plan for the same group is a second materialization and pays in full. *)
let cost (cluster : Cluster.t) (plan : Plan.t) : float =
  let produced = Plan.Tbl.create 8 in
  let rec go (n : Plan.t) : float =
    match n.Plan.op with
    | Physop.P_spool ->
        let read = Costmodel.spool_read_cost cluster n in
        if Plan.Tbl.mem produced n then read
        else begin
          Plan.Tbl.add produced n ();
          let children =
            List.fold_left (fun acc c -> acc +. go c) 0.0 n.Plan.children
          in
          n.Plan.op_cost +. children +. read
        end
    | _ ->
        List.fold_left (fun acc c -> acc +. go c) n.Plan.op_cost n.Plan.children
  in
  go plan

(* The same accounting served from the region summaries cached at plan
   construction ([Plan.sbase]/[Plan.srefs]): an added plan pays its
   region, then every spool reference pays a read, and the first
   reference to a distinct spool value also pays its production region
   and that region's own references.  O(#spool references) per plan
   instead of a full DAG walk.  A spool stays produced across [add]s, so
   plans added to one accumulator pay each shared production once, as
   the plan built over them will. *)
type acc = {
  cluster : Cluster.t;
  mutable sum : float;
  (* the distinct spool values met so far: a plan references few, so a
     physical-identity list beats a table built per accumulator *)
  mutable produced : Plan.t list;
}

let create cluster = { cluster; sum = 0.0; produced = [] }

let rec reference acc ((s : Plan.t), k) =
  let read = Costmodel.spool_read_cost acc.cluster s in
  for _ = 1 to k do
    acc.sum <- acc.sum +. read
  done;
  if not (List.memq s acc.produced) then begin
    acc.produced <- s :: acc.produced;
    acc.sum <- acc.sum +. s.Plan.sbase;
    List.iter (reference acc) s.Plan.srefs
  end

let add acc (plan : Plan.t) =
  match plan.Plan.op with
  | Physop.P_spool -> reference acc (plan, 1)
  | _ ->
      acc.sum <- acc.sum +. plan.Plan.sbase;
      List.iter (reference acc) plan.Plan.srefs

let sum acc = acc.sum

(* Agrees with [cost] up to float summation order (bit-for-bit on
   spool-free plans); the SA034 plan lint and the property tests check
   the two against each other. *)
let cached_cost (cluster : Cluster.t) (plan : Plan.t) : float =
  let acc = create cluster in
  add acc plan;
  sum acc

(* Number of distinct spool materializations and total spool references. *)
let spool_counts (plan : Plan.t) =
  let seen = Plan.Tbl.create 8 in
  let refs = ref 0 in
  let rec go (n : Plan.t) =
    (match n.Plan.op with
    | Physop.P_spool ->
        incr refs;
        Plan.Tbl.replace seen n ()
    | _ -> ());
    List.iter go n.Plan.children
  in
  go plan;
  (Plan.Tbl.length seen, !refs)
