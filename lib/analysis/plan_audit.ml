open Sphys

(* Plan-DAG lint.

   [Plan_check.validate] folds over the plan as a tree: a subplan
   referenced k times is checked k times, and nothing inspects the
   DAG-level bookkeeping (region cost summaries, spool group ids) that the
   deduplicated costing relies on.  This pass walks distinct nodes by
   physical identity exactly once and layers the DAG checks on top of the
   per-operator checks. *)

let run (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let check (n : Plan.t) =
    let loc = Diag.Operator (Physop.short_name n.Plan.op) in
    (* the per-operator checks of the independent checker *)
    List.iter
      (fun (v : Plan_check.violation) ->
        emit
          (Diag.make ~code:"SA030" ~loc
             (Printf.sprintf "%s: %s" v.Plan_check.where v.Plan_check.what)))
      (Plan_check.check_op n);
    (* DAG-level bookkeeping *)
    if Float.is_nan n.Plan.op_cost || n.Plan.op_cost < 0.0 || n.Plan.op_cost = Float.infinity
    then
      emit
        (Diag.make ~code:"SA032" ~loc
           (Printf.sprintf "op_cost is %s" (Float.to_string n.Plan.op_cost)));
    (match n.Plan.op with
    | Physop.P_spool when n.Plan.group < 0 ->
        emit
          (Diag.make ~code:"SA033" ~loc
             "spool without a memo group id cannot be deduplicated")
    | _ -> ());
    (* the cached region summary (the deduplicated-costing fast path)
       must reproduce from the children's summaries *)
    let expected_sbase =
      List.fold_left
        (fun acc c -> acc +. fst (Plan.region c))
        n.Plan.op_cost n.Plan.children
    in
    if Float.abs (expected_sbase -. n.Plan.sbase)
       > 1e-6 *. Float.max 1.0 (Float.abs n.Plan.sbase)
    then
      emit
        (Diag.make ~code:"SA034" ~loc
           (Printf.sprintf
              "records region cost %.6g, children's regions sum to %.6g"
              n.Plan.sbase expected_sbase));
    let expected_srefs =
      List.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (s, k) ->
              let rec add = function
                | [] -> [ (s, k) ]
                | (s', k') :: rest when s' == s -> (s', k' + k) :: rest
                | p :: rest -> p :: add rest
              in
              add acc)
            acc
            (snd (Plan.region c)))
        [] n.Plan.children
    in
    let count refs s =
      List.fold_left
        (fun acc (s', k) -> if s' == s then acc + k else acc)
        0 refs
    in
    if
      List.length expected_srefs <> List.length n.Plan.srefs
      || List.exists
           (fun (s, k) -> count n.Plan.srefs s <> k)
           expected_srefs
    then
      emit
        (Diag.make ~code:"SA034" ~loc
           (Printf.sprintf
              "records %d region spool reference(s), children's regions \
               yield %d"
              (List.length n.Plan.srefs)
              (List.length expected_srefs)))
  in
  Plan.iter_distinct check [ plan ];
  List.rev !diags
