open Sphys

(* Memo auditor (the heart of the analysis layer).

   The memo is the optimizer's single source of truth: a winner memoized
   under the wrong requirement key, a cost that does not reproduce from
   the cost model, or a stale infeasibility marker silently changes which
   CSE plan wins -- without producing a wrong *result*, only a wrong
   *choice*.  This pass recomputes everything that can be recomputed and
   flags what does not reproduce. *)

let cost_tolerance = 1e-6

let close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= cost_tolerance *. scale

(* --- SA001: the group-reference graph is acyclic ----------------------- *)

let cycle_diags (memo : Smemo.Memo.t) =
  let n = Smemo.Memo.size memo in
  (* 0 = unvisited, 1 = on the current DFS path, 2 = done *)
  let color = Array.make n 0 in
  let diags = ref [] in
  let rec visit path gid =
    if gid < 0 || gid >= n then
      let loc =
        match path with [] -> Diag.Whole | p :: _ -> Diag.Group p
      in
      diags :=
        Diag.make ~code:"SA001" ~loc
          (Printf.sprintf "reference to non-existent group %d" gid)
        :: !diags
    else if color.(gid) = 1 then
      diags :=
        Diag.make ~code:"SA001" ~loc:(Diag.Group gid)
          (Printf.sprintf "group cycle: %s"
             (String.concat " -> "
                (List.rev_map string_of_int (gid :: path))))
        :: !diags
    else if color.(gid) = 0 then begin
      color.(gid) <- 1;
      List.iter
        (visit (gid :: path))
        (Smemo.Memo.group_children (Smemo.Memo.group memo gid));
      color.(gid) <- 2
    end
  in
  visit [] memo.Smemo.Memo.root;
  List.rev !diags

(* --- SA002: expression arity and schema compatibility ------------------ *)

let expr_diags (memo : Smemo.Memo.t) (g : Smemo.Memo.group) =
  let loc = Diag.Group g.Smemo.Memo.id in
  List.concat_map
    (fun (e : Smemo.Memo.mexpr) ->
      let arity_ok =
        match Slogical.Logop.arity e.Smemo.Memo.mop with
        | Some k -> k = List.length e.Smemo.Memo.children
        | None -> true
      in
      if not arity_ok then
        [
          Diag.make ~code:"SA002" ~loc
            (Printf.sprintf "%s has %d children"
               (Slogical.Logop.short_name e.Smemo.Memo.mop)
               (List.length e.Smemo.Memo.children));
        ]
      else
        let child_schemas =
          List.filter_map
            (fun c ->
              if c >= 0 && c < Smemo.Memo.size memo then
                Some (Smemo.Memo.group memo c).Smemo.Memo.schema
              else None)
            e.Smemo.Memo.children
        in
        if List.length child_schemas <> List.length e.Smemo.Memo.children then
          [] (* dangling reference already reported as SA001 *)
        else
          match
            Slogical.Logop.derive_schema e.Smemo.Memo.mop child_schemas
          with
          | derived ->
              if Relalg.Schema.equal derived g.Smemo.Memo.schema then []
              else
                [
                  Diag.make ~code:"SA002" ~loc
                    (Printf.sprintf
                       "%s derives schema (%s), group schema is (%s)"
                       (Slogical.Logop.short_name e.Smemo.Memo.mop)
                       (Relalg.Schema.to_string derived)
                       (Relalg.Schema.to_string g.Smemo.Memo.schema));
                ]
          | exception Invalid_argument msg ->
              [ Diag.make ~code:"SA002" ~loc msg ])
    g.Smemo.Memo.exprs

(* --- winner checks ----------------------------------------------------- *)

let reproduced_op_cost ~cluster (n : Plan.t) =
  Scost.Costmodel.op_cost cluster n.Plan.op n.Plan.children ~out:n.Plan.stats

(* Recompute the plan's costs bottom-up: every node's [op_cost] must
   reproduce from the cost model over its children.  Distinct nodes are
   visited once (the plan may be a DAG through shared spools). *)
let cost_diags ~cluster ~loc (plan : Plan.t) =
  let seen = Plan.Tbl.create 64 in
  let rec go acc (n : Plan.t) =
    if Plan.Tbl.mem seen n then acc
    else (
      Plan.Tbl.add seen n ();
      let acc = List.fold_left go acc n.Plan.children in
      let expected = reproduced_op_cost ~cluster n in
      if close expected n.Plan.op_cost then acc
      else
        Diag.make ~code:"SA003" ~loc
          (Printf.sprintf "%s records op_cost %.6g, cost model reproduces %.6g"
             (Physop.short_name n.Plan.op) n.Plan.op_cost expected)
        :: acc)
  in
  List.rev (go [] plan)

(* The SA003 and SA004 checks are local to a node and its direct
   children, so a winner passes them exactly when every distinct node of
   its subtree does.  Winners of one memo share most of their subplans
   physically (a parent's winner is built over its children's winners,
   and phase 2 re-optimizes under pinned properties), so the verdict is
   memoized per distinct node in [clean], one table per audit: the memo
   is then checked in O(distinct nodes) rather than O(sum of winner
   subtree sizes).  Only a winner with a violation somewhere below it is
   walked again, by the per-winner path that words its diagnostics. *)
let rec subtree_clean ~cluster clean (n : Plan.t) =
  match Plan.Tbl.find_opt clean n with
  | Some ok -> ok
  | None ->
      let ok =
        List.for_all (subtree_clean ~cluster clean) n.Plan.children
        && Plan_check.check_op n = []
        && close (reproduced_op_cost ~cluster n) n.Plan.op_cost
      in
      Plan.Tbl.add clean n ok;
      ok

let winner_loc (g : Smemo.Memo.group) (w : Smemo.Memo.winner) =
  Diag.Winner
    ( g.Smemo.Memo.id,
      Printf.sprintf "phase %d, %s" w.Smemo.Memo.wphase
        (Reqprops.to_string w.Smemo.Memo.wreq) )

(* The findings of one winner, [diag] wording each at the winner. *)
let findings ~cluster ~clean memo (g : Smemo.Memo.group) winners
    (w : Smemo.Memo.winner) =
  let diag code msg = Diag.make ~code ~loc:(winner_loc g w) msg in
  (* SA007 for the conventional pass's winner of a shared (spool) group:
     the pass bypasses the spool, so the winner must be the spooled
     child's phase-0 winner under the same requirement, node for node *)
  let bypassed = w.Smemo.Memo.wphase = 0 && g.Smemo.Memo.shared in
  let bypass =
    if not bypassed then []
    else
      let child =
        Smemo.Memo.group memo (List.hd (Smemo.Memo.group_children g))
      in
      let same (cw : Smemo.Memo.winner) =
        cw.Smemo.Memo.wphase = 0
        && Reqprops.equal cw.Smemo.Memo.wreq w.Smemo.Memo.wreq
        && Option.equal ( == ) cw.Smemo.Memo.wplan w.Smemo.Memo.wplan
      in
      if List.exists same (Smemo.Memo.winners_of child) then []
      else
        [
          diag "SA007"
            (Printf.sprintf "conventional winner is not group %d's winner"
               child.Smemo.Memo.id);
        ]
  in
  bypass
  @
  match w.Smemo.Memo.wplan with
  | Some p ->
      let dirty = not (subtree_clean ~cluster clean p) in
      (if bypassed || p.Plan.group = g.Smemo.Memo.id then []
       else
         [
           diag "SA007"
             (Printf.sprintf "winner root implements group %d" p.Plan.group);
         ])
      @ (match if dirty then Plan_check.validate p else Ok () with
        | Ok () -> []
        | Error errs ->
            List.map
              (fun e -> diag "SA004" (Plan_check.violations_to_string [ e ]))
              errs)
      @ (if Reqprops.satisfied p.Plan.props w.Smemo.Memo.wreq then []
         else
           [
             diag "SA005"
               (Printf.sprintf "winner delivers %s" (Props.to_string p.Plan.props));
           ])
      @ if dirty then cost_diags ~cluster ~loc:(winner_loc g w) p else []
  | None -> (
      (* an infeasibility marker must not be contradicted by a feasible
         winner of the same group recorded in the same phase under the
         same enforcement map (identical search space) *)
      let contradicts (w' : Smemo.Memo.winner) =
        w'.Smemo.Memo.wphase = w.Smemo.Memo.wphase
        && w'.Smemo.Memo.wenforce = w.Smemo.Memo.wenforce
        &&
        match w'.Smemo.Memo.wplan with
        | Some p' -> Reqprops.satisfied p'.Plan.props w.Smemo.Memo.wreq
        | None -> false
      in
      match List.find_opt contradicts winners with
      | Some w' ->
          [
            diag "SA006"
              (Printf.sprintf
                 "marked infeasible, but the winner for %s satisfies it"
                 (Reqprops.to_string w'.Smemo.Memo.wreq));
          ]
      | None -> [])

(* Findings in (phase, requirement key) order.  Almost every winner is
   clean, so the key is built only for a winner with findings, and only
   those are sorted: a stable sort of that subset keeps the order a
   stable sort of every winner gives it. *)
let winner_diags ~cluster ~clean memo (g : Smemo.Memo.group) =
  let winners = Smemo.Memo.winners_of g in
  List.filter_map
    (fun (w : Smemo.Memo.winner) ->
      match findings ~cluster ~clean memo g winners w with
      | [] -> None
      | ds ->
          Some ((w.Smemo.Memo.wphase, Reqprops.to_key w.Smemo.Memo.wreq), ds))
    winners
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map snd

let run ~cluster (memo : Smemo.Memo.t) : Diag.t list =
  let cycles = cycle_diags memo in
  let live = Smemo.Memo.reachable memo in
  (* about one distinct node per winner: sized never to rehash *)
  let winners = ref 0 in
  Smemo.Memo.iter_groups memo (fun g ->
      winners := !winners + Hashtbl.length g.Smemo.Memo.winners);
  let clean = Plan.Tbl.create !winners in
  let rest_rev = ref [] in
  Smemo.Memo.iter_groups memo (fun g ->
      if live.(g.Smemo.Memo.id) then
        rest_rev :=
          List.rev_append
            (expr_diags memo g
            @ Logical_audit.stats_diags
                ~loc:(Diag.Group g.Smemo.Memo.id)
                g.Smemo.Memo.stats
            @ winner_diags ~cluster ~clean memo g)
            !rest_rev);
  cycles @ List.rev !rest_rev
