open Sphys

(* DAG-aware plan costing.

   The cost of a plan that shares spooled subexpressions counts each
   spool *producer* once and charges each consumer a read of the
   materialized result.  The search compares candidates on [cached_cost]
   (through [Optimizer.plan_cost]) and settles near-ties on the walking
   [cost]; the tree-wise [Plan.cost], where every reference to a subplan
   pays for it, is only printed and audited.  For spool-free plans all
   three coincide. *)

(* Two consumers share one materialization exactly when they reference the
   *same* spool plan (winner memoization hands every consumer with the
   same pinned properties the identical plan value); a physically distinct
   plan for the same group is a second materialization and pays in full. *)
let cost (cluster : Cluster.t) (plan : Plan.t) : float =
  let produced : (int, Plan.t list) Hashtbl.t = Hashtbl.create 8 in
  let already_produced (n : Plan.t) =
    let prev = Option.value ~default:[] (Hashtbl.find_opt produced n.Plan.group) in
    if List.exists (fun p -> p == n) prev then true
    else begin
      Hashtbl.replace produced n.Plan.group (n :: prev);
      false
    end
  in
  let rec go (n : Plan.t) : float =
    match n.Plan.op with
    | Physop.P_spool ->
        let read = Costmodel.spool_read_cost cluster n in
        if already_produced n then read
        else
          let children =
            List.fold_left (fun acc c -> acc +. go c) 0.0 n.Plan.children
          in
          n.Plan.op_cost +. children +. read
    | _ ->
        List.fold_left (fun acc c -> acc +. go c) n.Plan.op_cost n.Plan.children
  in
  go plan

(* Same accounting served from the region summaries cached at plan
   construction ([Plan.sbase]/[Plan.srefs]): pay the root's region, then
   close over the spool references -- every reference pays a read, every
   first reference of a distinct spool value additionally pays its inner
   production region and exposes that region's own spool references.
   O(#spool references) per call instead of a full DAG walk, which is what
   the optimizer's candidate comparisons use.  Agrees with [cost] up to
   float summation order (bit-for-bit on spool-free plans); the SA034
   plan lint and the property tests check the two against each other. *)
let cached_cost (cluster : Cluster.t) (plan : Plan.t) : float =
  match plan.Plan.srefs with
  | [] when plan.Plan.op <> Physop.P_spool -> plan.Plan.sbase
  | _ ->
      (* the distinct spool values met so far: a plan references few, so
         a physical-identity list beats a table built per call *)
      let produced = ref [] in
      let already_produced (n : Plan.t) =
        List.memq n !produced
        || begin
             produced := n :: !produced;
             false
           end
      in
      let total = ref 0.0 in
      let pending = Queue.create () in
      let reference r = Queue.add r pending in
      (match plan.Plan.op with
      | Physop.P_spool -> reference (plan, 1)
      | _ ->
          total := plan.Plan.sbase;
          List.iter reference plan.Plan.srefs);
      while not (Queue.is_empty pending) do
        let s, k = Queue.pop pending in
        let read = Costmodel.spool_read_cost cluster s in
        for _ = 1 to k do
          total := !total +. read
        done;
        if not (already_produced s) then begin
          total := !total +. s.Plan.sbase;
          List.iter reference s.Plan.srefs
        end
      done;
      !total

(* Number of distinct spool materializations and total spool references. *)
let spool_counts (plan : Plan.t) =
  let seen : (int, Plan.t list) Hashtbl.t = Hashtbl.create 8 in
  let refs = ref 0 in
  let rec go (n : Plan.t) =
    (match n.Plan.op with
    | Physop.P_spool ->
        incr refs;
        let prev = Option.value ~default:[] (Hashtbl.find_opt seen n.Plan.group) in
        if not (List.exists (fun p -> p == n) prev) then
          Hashtbl.replace seen n.Plan.group (n :: prev)
    | _ -> ());
    List.iter go n.Plan.children
  in
  go plan;
  let distinct =
    Hashtbl.fold (fun _ l acc -> acc + List.length l) seen 0
  in
  (distinct, !refs)
