(* The static-analysis layer (lib/analysis).

   Positive coverage: the full audit — including the deep cross-layer
   SA05x passes — is clean on every builtin workload (S1-S4, IND, LS1,
   LS2) at several machine counts and on 25 random scripts.
   Negative coverage: every SA0xx diagnostic is exercised at least once by
   hand-corrupting a memo, a logical DAG or a plan and asserting that the
   responsible analyzer reports exactly that code. *)

open Sphys

let has code diags =
  List.exists (fun (d : Sanalysis.Diag.t) -> d.Sanalysis.Diag.code = code) diags

let assert_code code diags =
  if not (has code diags) then
    Alcotest.failf "expected %s, got:\n%s" code
      (Fmt.str "%a" Sanalysis.Diag.pp_report diags)

let assert_not_code code diags =
  if has code diags then
    Alcotest.failf "unexpected %s:\n%s" code
      (Fmt.str "%a" Sanalysis.Diag.pp_report diags)

(* Pipeline run over the default catalog without the Thelpers auto-audit
   (the corruption tests audit explicitly after tampering). *)
let raw_report ?(machines = 25) script =
  let catalog = Thelpers.default_catalog () in
  let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
  let r = Cse.Pipeline.run ~cluster ~catalog script in
  (catalog, cluster, r)

(* --- positive: builtins audit clean at several machine counts ----------- *)

let audit_clean ~machines name script catalog =
  let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
  let r = Cse.Pipeline.run ~cluster ~catalog script in
  let diags = Sanalysis.Audit.report ~deep:true ~cluster ~catalog r in
  match Sanalysis.Diag.errors diags with
  | [] -> ()
  | _ ->
      Alcotest.failf "%s (machines=%d): audit errors:\n%s" name machines
        (Fmt.str "%a" Sanalysis.Diag.pp_report diags)

let test_builtins_clean () =
  List.iter
    (fun machines ->
      List.iter
        (fun (name, script) ->
          audit_clean ~machines name script (Thelpers.default_catalog ()))
        Thelpers.small_builtins)
    [ 4; 25 ]

let large_clean name =
  let script, catalog = Thelpers.builtin name in
  audit_clean ~machines:25 name script catalog

let test_ls1_clean () = large_clean "LS1"
let test_ls2_clean () = large_clean "LS2"

let test_random_clean () =
  for seed = 1 to 25 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:8 () in
    let catalog = Sworkload.Random_gen.catalog () in
    audit_clean ~machines:7 (Printf.sprintf "random seed %d" seed) script catalog
  done

(* --- memo auditor: the memoized walk against a per-winner reference ------ *)

(* The winner findings of the memo audit (SA003-SA007), rebuilt the slow
   way: every winner of every live group, in (phase, requirement key)
   order, is checked on its own -- a feasible one through the whole-plan
   checker and the cost reproduction -- without sharing any verdict with
   the other winners. *)
let per_winner_reference ~cluster memo =
  let live = Smemo.Memo.reachable memo in
  let out = ref [] in
  Smemo.Memo.iter_groups memo (fun g ->
      if live.(g.Smemo.Memo.id) then
        let winners = Smemo.Memo.winners_of g in
        List.stable_sort
          (fun (a : Smemo.Memo.winner) b ->
            compare
              (a.Smemo.Memo.wphase, Reqprops.to_key a.Smemo.Memo.wreq)
              (b.Smemo.Memo.wphase, Reqprops.to_key b.Smemo.Memo.wreq))
          winners
        |> List.iter (fun (w : Smemo.Memo.winner) ->
               let loc = Sanalysis.Memo_audit.winner_loc g w in
               let diag code msg = Sanalysis.Diag.make ~code ~loc msg in
               let bypassed = w.Smemo.Memo.wphase = 0 && g.Smemo.Memo.shared in
               let bypass =
                 if not bypassed then []
                 else
                   let child =
                     Smemo.Memo.group memo (List.hd (Smemo.Memo.group_children g))
                   in
                   if
                     List.exists
                       (fun (cw : Smemo.Memo.winner) ->
                         cw.Smemo.Memo.wphase = 0
                         && Reqprops.equal cw.Smemo.Memo.wreq w.Smemo.Memo.wreq
                         && Option.equal ( == ) cw.Smemo.Memo.wplan
                              w.Smemo.Memo.wplan)
                       (Smemo.Memo.winners_of child)
                   then []
                   else
                     [
                       diag "SA007"
                         (Printf.sprintf
                            "conventional winner is not group %d's winner"
                            child.Smemo.Memo.id);
                     ]
               in
               let own =
                 match w.Smemo.Memo.wplan with
                 | Some p ->
                     (if bypassed || p.Plan.group = g.Smemo.Memo.id then []
                      else
                        [
                          diag "SA007"
                            (Printf.sprintf "winner root implements group %d"
                               p.Plan.group);
                        ])
                     @ (match Plan_check.validate p with
                       | Ok () -> []
                       | Error errs ->
                           List.map
                             (fun e ->
                               diag "SA004" (Plan_check.violations_to_string [ e ]))
                             errs)
                     @ (if Reqprops.satisfied p.Plan.props w.Smemo.Memo.wreq then []
                        else
                          [
                            diag "SA005"
                              (Printf.sprintf "winner delivers %s"
                                 (Props.to_string p.Plan.props));
                          ])
                     @ Sanalysis.Memo_audit.cost_diags ~cluster ~loc p
                 | None -> (
                     match
                       List.find_opt
                         (fun (w' : Smemo.Memo.winner) ->
                           w'.Smemo.Memo.wphase = w.Smemo.Memo.wphase
                           && w'.Smemo.Memo.wenforce = w.Smemo.Memo.wenforce
                           &&
                           match w'.Smemo.Memo.wplan with
                           | Some p' ->
                               Reqprops.satisfied p'.Plan.props w.Smemo.Memo.wreq
                           | None -> false)
                         winners
                     with
                     | Some w' ->
                         [
                           diag "SA006"
                             (Printf.sprintf
                                "marked infeasible, but the winner for %s \
                                 satisfies it"
                                (Reqprops.to_string w'.Smemo.Memo.wreq));
                         ]
                     | None -> [])
               in
               out := List.rev_append (bypass @ own) !out));
  List.rev !out

let winner_codes = [ "SA003"; "SA004"; "SA005"; "SA006"; "SA007" ]

let memo_audit_matches_reference name ~cluster memo =
  let memoized =
    List.filter
      (fun (d : Sanalysis.Diag.t) -> List.mem d.Sanalysis.Diag.code winner_codes)
      (Sanalysis.Memo_audit.run ~cluster memo)
  in
  let reference = per_winner_reference ~cluster memo in
  if memoized <> reference then
    Alcotest.failf "%s: memo audit differs from the per-winner reference:\n%s\nreference:\n%s"
      name
      (Fmt.str "%a" Sanalysis.Diag.pp_report memoized)
      (Fmt.str "%a" Sanalysis.Diag.pp_report reference)

let test_memo_audit_reference () =
  let run ~machines name script catalog =
    let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
    let r = Cse.Pipeline.run ~cluster ~catalog script in
    memo_audit_matches_reference name ~cluster r.Cse.Pipeline.memo
  in
  List.iter
    (fun (w : Sworkload.Builtin.t) ->
      run ~machines:25 w.name w.script (w.catalog ()))
    Sworkload.Builtin.all;
  for seed = 1 to 25 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:8 () in
    run ~machines:7
      (Printf.sprintf "random seed %d" seed)
      script
      (Sworkload.Random_gen.catalog ())
  done;
  (* the corrupted memos exercise the per-winner fallback: every winner
     over a dirty node must be worded exactly as the reference words it *)
  let corrupted = Mutate.corrupted_memos () in
  let findings = ref 0 in
  List.iter
    (fun (name, cluster, memo) ->
      findings := !findings + List.length (per_winner_reference ~cluster memo);
      memo_audit_matches_reference name ~cluster memo)
    corrupted;
  Alcotest.(check bool) "corruptions produce winner findings" true
    (!findings > 0)

(* Two winners of one group corrupted so that both carry an SA003
   finding, picked so that the winners table lists them against
   (phase, requirement key) order: the audit must report them in that
   order all the same, and agree with the reference. *)
let test_memo_audit_order () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let live = Smemo.Memo.reachable memo in
  let key (w : Smemo.Memo.winner) =
    (w.Smemo.Memo.wphase, Reqprops.to_key w.Smemo.Memo.wreq)
  in
  let rec descending = function
    | ((_, a) as ka) :: ((((_, b) as kb) :: _) as rest) ->
        if compare (key a) (key b) > 0 then Some (ka, kb) else descending rest
    | _ -> None
  in
  let pick = ref None in
  Smemo.Memo.iter_groups memo (fun g ->
      if !pick = None && live.(g.Smemo.Memo.id) then
        (* the table's own order, the one [Memo.winners_of] lists *)
        Hashtbl.fold
          (fun k (w : Smemo.Memo.winner) acc ->
            if w.Smemo.Memo.wplan = None then acc else (k, w) :: acc)
          g.Smemo.Memo.winners []
        |> descending
        |> Option.iter (fun pair -> pick := Some (g, pair)));
  let g, ((ka, a), (kb, b)) =
    match !pick with
    | Some p -> p
    | None -> Alcotest.fail "no group lists two feasible winners out of order"
  in
  List.iter
    (fun (k, (w : Smemo.Memo.winner)) ->
      let p = Option.get w.Smemo.Memo.wplan in
      Hashtbl.replace g.Smemo.Memo.winners k
        {
          w with
          Smemo.Memo.wplan = Some { p with Plan.op_cost = p.Plan.op_cost +. 1.0e6 };
        })
    [ (ka, a); (kb, b) ];
  let locs =
    List.filter_map
      (fun (d : Sanalysis.Diag.t) ->
        if d.Sanalysis.Diag.code = "SA003" then Some d.Sanalysis.Diag.loc
        else None)
      (Sanalysis.Memo_audit.run ~cluster memo)
  in
  Alcotest.(check bool) "b's finding before a's" true
    (locs
    = [ Sanalysis.Memo_audit.winner_loc g b; Sanalysis.Memo_audit.winner_loc g a ]);
  memo_audit_matches_reference "two corrupted winners of one group" ~cluster memo

(* --- allocation of the deep audit ------------------------------------------ *)

(* Minor words are exactly reproducible where walls are not: the deep
   audit of LS2 must stay a fraction of the search it checks. *)
let test_audit_allocation () =
  let script, catalog = Thelpers.builtin "LS2" in
  let cluster = Scost.Cluster.default in
  let r = Cse.Pipeline.run ~cluster ~catalog script in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Sanalysis.Audit.report ~deep:true ~cluster ~catalog r));
  let words = Gc.minor_words () -. before in
  (* the audit allocated 20.56 M minor words when it built a sort key
     for every winner and canonicalized the logical DAG once per plan *)
  if words > 10.0e6 then
    Alcotest.failf "deep audit of LS2 allocated %.2f M minor words (bound 10 M)"
      (words /. 1e6)

(* --- negative: memo auditor --------------------------------------------- *)

(* SA001: a spool expression rewritten to reference its own group. *)
let test_sa001_cycle () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let spool =
    (List.hd r.Cse.Pipeline.shared).Cse.Spool.spool
  in
  let g = Smemo.Memo.group memo spool in
  g.Smemo.Memo.exprs <-
    [ { Smemo.Memo.mop = Slogical.Logop.Spool; children = [ spool ] } ];
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA001" diags

(* SA002: an expression whose arity does not match its operator. *)
let test_sa002_schema () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let child = List.hd (Smemo.Memo.group_children root) in
  root.Smemo.Memo.exprs <-
    root.Smemo.Memo.exprs
    @ [ { Smemo.Memo.mop = Slogical.Logop.Union_all; children = [ child ] } ];
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA002" diags

(* Find a winner with a plan in the group, with its table key. *)
let some_winner (g : Smemo.Memo.group) =
  Hashtbl.fold
    (fun k (w : Smemo.Memo.winner) acc ->
      match (acc, w.Smemo.Memo.wplan) with
      | None, Some p -> Some (k, w, p)
      | _ -> acc)
    g.Smemo.Memo.winners None
  |> Option.get

(* SA003: a memoized winner whose op_cost does not reproduce. *)
let test_sa003_wrong_cost () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let key, w, p = some_winner root in
  Hashtbl.replace root.Smemo.Memo.winners key
    { w with Smemo.Memo.wplan = Some { p with Plan.op_cost = p.Plan.op_cost +. 1.0e6 } };
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA003" diags

(* SA004: a winner whose recorded delivered properties are wrong. *)
let test_sa004_invalid_plan () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let key, w, p = some_winner root in
  let corrupt =
    { p with Plan.props = { p.Plan.props with Props.sort = [ ("__corrupt", Sortorder.Desc) ] } }
  in
  Hashtbl.replace root.Smemo.Memo.winners key
    { w with Smemo.Memo.wplan = Some corrupt };
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA004" diags

(* SA005: a winner that does not satisfy its recorded requirement. *)
let test_sa005_unsatisfied_req () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let key, w, _ = some_winner root in
  Hashtbl.replace root.Smemo.Memo.winners key
    {
      w with
      Smemo.Memo.wreq =
        Reqprops.make (Reqprops.Hash_exact (Thelpers.colset [ "__nope" ])) [];
    };
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA005" diags

(* SA006: an infeasibility marker next to a feasible winner for the same
   requirement space. *)
let test_sa006_contradicted_infeasible () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let _, w, _ = some_winner root in
  Hashtbl.replace root.Smemo.Memo.winners (-1)
    {
      Smemo.Memo.wphase = w.Smemo.Memo.wphase;
      wreq = Reqprops.none;
      wenforce = w.Smemo.Memo.wenforce;
      wplan = None;
    };
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA006" diags

(* SA007: a winner rooted at a different group. *)
let test_sa007_wrong_group () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let root = Smemo.Memo.root_group memo in
  let key, w, p = some_winner root in
  Hashtbl.replace root.Smemo.Memo.winners key
    { w with Smemo.Memo.wplan = Some { p with Plan.group = p.Plan.group + 1 } };
  let diags = Sanalysis.Memo_audit.run ~cluster memo in
  assert_code "SA007" diags

(* SA007: the conventional pass's winner of a spool group is its child's
   winner, node for node; an equal copy means the spool was re-planned
   instead of bypassed. *)
let test_sa007_spool_bypass () =
  let _, cluster, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let spool = (List.hd r.Cse.Pipeline.shared).Cse.Spool.spool in
  let sa007 () =
    List.filter
      (fun (d : Sanalysis.Diag.t) -> d.Sanalysis.Diag.code = "SA007")
      (Sanalysis.Memo_audit.run ~cluster memo)
  in
  Alcotest.(check int) "bypassed winners audit clean" 0 (List.length (sa007 ()));
  Hashtbl.filter_map_inplace
    (fun _ (w : Smemo.Memo.winner) ->
      match w.Smemo.Memo.wplan with
      | Some p when w.Smemo.Memo.wphase = 0 ->
          let copy = { p with Plan.op_cost = p.Plan.op_cost } in
          Some { w with Smemo.Memo.wplan = Some copy }
      | _ -> Some w)
    (Smemo.Memo.group memo spool).Smemo.Memo.winners;
  assert_code "SA007" (sa007 ())

(* --- negative: sharing auditor ------------------------------------------ *)

(* SA010: a non-spool group marked shared. *)
let test_sa010_shared_not_spool () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let under = (List.hd r.Cse.Pipeline.shared).Cse.Spool.under in
  (Smemo.Memo.group memo under).Smemo.Memo.shared <- true;
  let diags = Sanalysis.Sharing_audit.run memo in
  assert_code "SA010" diags

(* SA011: a shared spool left with a single consumer. *)
let test_sa011_single_consumer () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let s = List.hd r.Cse.Pipeline.shared in
  let spool = s.Cse.Spool.spool and under = s.Cse.Spool.under in
  let rewire consumer =
    let cg = Smemo.Memo.group memo consumer in
    cg.Smemo.Memo.exprs <-
      List.map
        (fun (e : Smemo.Memo.mexpr) ->
          {
            e with
            Smemo.Memo.children =
              List.map
                (fun c -> if c = spool then under else c)
                e.Smemo.Memo.children;
          })
        cg.Smemo.Memo.exprs
  in
  (* leave exactly one consumer pointing at the spool *)
  (match (Smemo.Memo.parents memo).(spool) with
  | [] -> Alcotest.fail "spool has no consumers"
  | _keep :: rest -> List.iter rewire rest);
  let diags = Sanalysis.Sharing_audit.run memo in
  assert_code "SA011" diags

(* SA012: empty and duplicated candidate property sets. *)
let test_sa012_candidates () =
  let diags = Sanalysis.Sharing_audit.candidates_diags ~shared:7 [] in
  assert_code "SA012" diags;
  let p = Reqprops.make (Reqprops.Hash_exact (Thelpers.colset [ "B" ])) [] in
  let diags = Sanalysis.Sharing_audit.candidates_diags ~shared:7 [ p; p ] in
  assert_code "SA012" diags;
  let q = Reqprops.make (Reqprops.Hash_exact (Thelpers.colset [ "C" ])) [] in
  Alcotest.(check int)
    "distinct candidates are clean" 0
    (List.length (Sanalysis.Sharing_audit.candidates_diags ~shared:7 [ p; q ]))

(* Locate a node in a plan by operator predicate. *)
let find_node pred plan =
  Plan.fold (fun acc n -> match acc with Some _ -> acc | None -> if pred n then Some n else None) None plan

let spool_node plan =
  match
    find_node (fun n -> match n.Plan.op with Physop.P_spool -> true | _ -> false) plan
  with
  | Some s -> s
  | None -> Alcotest.fail "no spool in the CSE plan"

(* SA013: two distinct materializations of one shared group. *)
let test_sa013_double_spool () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let s = spool_node r.Cse.Pipeline.cse_plan in
  let clone = { s with Plan.op_cost = s.Plan.op_cost } in
  let plan =
    Plan.make ~op:Physop.P_sequence ~children:[ s; clone ] ~group:(-1)
      ~schema:s.Plan.schema ~stats:s.Plan.stats ~op_cost:0.0 ()
  in
  let diags = Sanalysis.Sharing_audit.plan_diags ~memo plan in
  assert_code "SA013" diags;
  (* the uncorrupted plan is clean *)
  assert_not_code "SA013"
    (Sanalysis.Sharing_audit.plan_diags ~memo r.Cse.Pipeline.cse_plan)

(* SA014: a plan spooling a group that is not marked shared. *)
let test_sa014_unmarked_spool () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let memo = r.Cse.Pipeline.memo in
  let under = (List.hd r.Cse.Pipeline.shared).Cse.Spool.under in
  let s = spool_node r.Cse.Pipeline.cse_plan in
  let diags =
    Sanalysis.Sharing_audit.plan_diags ~memo { s with Plan.group = under }
  in
  assert_code "SA014" diags

(* Found by running the audit over the suite: with the budget exhausted
   before any phase-2 round, the CSE plan falls back to the phase-1 shape
   and materializes a shared group once per distinct property requirement.
   That is the documented Figure 8(a) degradation, reported as an SA013
   warning -- not an error -- when the report says the budget ran out. *)
let test_sa013_budget_truncated () =
  let catalog = Thelpers.default_catalog () in
  let budget = Sopt.Budget.create ~max_tasks:1 () in
  let r = Cse.Pipeline.run ~budget ~catalog Sworkload.Paper_scripts.s4 in
  Alcotest.(check bool) "budget exhausted" true r.Cse.Pipeline.budget_exhausted;
  let memo = r.Cse.Pipeline.memo in
  let strictly = Sanalysis.Sharing_audit.plan_diags ~memo r.Cse.Pipeline.cse_plan in
  assert_code "SA013" strictly;
  let degraded =
    Sanalysis.Sharing_audit.plan_diags ~degraded:true ~memo r.Cse.Pipeline.cse_plan
  in
  assert_code "SA013" degraded;
  Alcotest.(check int) "degraded SA013 is a warning" 0
    (List.length (Sanalysis.Diag.errors degraded));
  (* the full audit therefore passes on a budget-truncated report *)
  Sanalysis.Audit.assert_clean ~cluster:Scost.Cluster.default ~catalog r

(* --- negative: round-pruning audit --------------------------------------- *)

(* SA060: each way a recorded (dropped, dominator) pair can fail the
   dominance re-verification. *)
let test_sa060_unsound_prune () =
  let hx cols sort =
    Reqprops.make
      (Reqprops.Hash_exact (Thelpers.colset cols))
      (Sortorder.asc sort)
  in
  let sound_by = hx [ "A" ] [ "x"; "y" ] in
  let sound_p = hx [ "A" ] [ "x" ] in
  let pd ~kept pair =
    Sanalysis.Prune_audit.run ~candidates:[ (7, kept) ] [ (7, [ pair ]) ]
  in
  (* a genuinely dominated pair with the dominator kept is clean *)
  Alcotest.(check int)
    "sound pair" 0
    (List.length (pd ~kept:[ sound_by ] (sound_p, sound_by)));
  (* partitionings differ *)
  assert_code "SA060" (pd ~kept:[ sound_by ] (hx [ "B" ] [ "x" ], sound_by));
  (* Any on either side is unconstrained, never comparable *)
  let any = Reqprops.make Reqprops.Any (Sortorder.asc [ "x" ]) in
  assert_code "SA060" (pd ~kept:[ any ] (any, any));
  (* empty dropped sort: the cheap baseline must never be pruned *)
  assert_code "SA060" (pd ~kept:[ sound_by ] (hx [ "A" ] [], sound_by));
  (* dropped sort not a prefix of the dominator's *)
  assert_code "SA060" (pd ~kept:[ sound_by ] (hx [ "A" ] [ "z" ], sound_by));
  (* equal sorts: a duplicate, not a dominated candidate *)
  assert_code "SA060" (pd ~kept:[ sound_p ] (sound_p, sound_p));
  (* dominator itself was dropped: the covering round never ran *)
  assert_code "SA060" (pd ~kept:[] (sound_p, sound_by));
  (* dropped candidate still generated rounds *)
  assert_code "SA060"
    (pd ~kept:[ sound_by; sound_p ] (sound_p, sound_by));
  (* Prune_audit.run threads the kept candidates per group *)
  let diags =
    Sanalysis.Prune_audit.run
      ~candidates:[ (7, [ sound_by ]) ]
      [ (7, [ (sound_p, sound_by) ]); (9, [ (sound_p, sound_by) ]) ]
  in
  (* group 9 has no kept list recorded: its dominator cannot be kept *)
  assert_code "SA060" diags;
  Alcotest.(check int) "only group 9 fires" 1 (List.length diags)

(* --- negative: logical-DAG lint ------------------------------------------ *)

(* SA020: a filter over a column its child does not produce. *)
let test_sa020_dangling_column () =
  let b = Slogical.Dag.builder () in
  let schema = [ Relalg.Schema.column "A" Relalg.Schema.Tint ] in
  let ex =
    Slogical.Dag.add b
      (Slogical.Logop.Extract { file = "test.log"; extractor = "LogExtractor"; schema })
      [] []
  in
  let flt =
    Slogical.Dag.add b
      (Slogical.Logop.Filter
         {
           pred =
             Relalg.Expr.Cmp
               ( Relalg.Expr.Le,
                 Relalg.Expr.Col "MISSING",
                 Relalg.Expr.Lit (Relalg.Value.Int 1) );
         })
      [ ex.Slogical.Dag.id ] [ schema ]
  in
  let dag = Slogical.Dag.finish b ~root:flt in
  let diags =
    Sanalysis.Logical_audit.run ~catalog:(Relalg.Catalog.default ()) ~machines:25
      dag
  in
  assert_code "SA020" diags

(* SA021 / SA022: statistics sanity. *)
let test_sa021_bad_stats () =
  let loc = Sanalysis.Diag.Node 3 in
  let bad =
    {
      Slogical.Stats.rows = -5.0;
      row_bytes = Float.nan;
      ndvs = [ ("A", Float.nan) ];
    }
  in
  let diags = Sanalysis.Logical_audit.stats_diags ~loc bad in
  assert_code "SA021" diags;
  Alcotest.(check int) "three findings" 3 (List.length diags)

let test_sa022_ndv_exceeds_rows () =
  let loc = Sanalysis.Diag.Node 3 in
  let sus =
    { Slogical.Stats.rows = 10.0; row_bytes = 8.0; ndvs = [ ("A", 1000.0) ] }
  in
  let diags = Sanalysis.Logical_audit.stats_diags ~loc sus in
  assert_code "SA022" diags;
  assert_not_code "SA021" diags

(* --- negative: plan-DAG lint --------------------------------------------- *)

(* SA030: a node whose recorded delivered properties do not rederive. *)
let test_sa030_bad_props () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let p = r.Cse.Pipeline.conventional_plan in
  let corrupt =
    { p with Plan.props = { p.Plan.props with Props.sort = [ ("__x", Sortorder.Asc) ] } }
  in
  assert_code "SA030" (Sanalysis.Plan_audit.run corrupt);
  assert_not_code "SA030" (Sanalysis.Plan_audit.run p)

(* SA032: negative operator cost. *)
let test_sa032_negative_cost () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let p = r.Cse.Pipeline.conventional_plan in
  assert_code "SA032" (Sanalysis.Plan_audit.run { p with Plan.op_cost = -5.0 })

(* SA033: a spool with no memo group id. *)
let test_sa033_anonymous_spool () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let s = spool_node r.Cse.Pipeline.cse_plan in
  assert_code "SA033" (Sanalysis.Plan_audit.run { s with Plan.group = -1 })

(* SA034: cached region summaries that do not reproduce. *)
let test_sa034_stale_region_cache () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let conv = r.Cse.Pipeline.conventional_plan in
  assert_code "SA034"
    (Sanalysis.Plan_audit.run { conv with Plan.sbase = conv.Plan.sbase +. 1.0e6 });
  let cse = r.Cse.Pipeline.cse_plan in
  assert_code "SA034" (Sanalysis.Plan_audit.run { cse with Plan.srefs = [] });
  (* uncorrupted plans are clean *)
  assert_not_code "SA034" (Sanalysis.Plan_audit.run conv);
  assert_not_code "SA034" (Sanalysis.Plan_audit.run cse)

(* --- negative: stage-graph audit ----------------------------------------- *)

(* The stage audit of a plan's own freshly compiled graph. *)
let stage_audit ?expect_spooled_sharing plan =
  Sanalysis.Stage_audit.check_graph ?expect_spooled_sharing plan
    (Sexec.Stage.build plan)

(* SA040: a graph whose sink is not the last stage. *)
let test_sa040_not_topological () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let plan = r.Cse.Pipeline.cse_plan in
  let g = Sexec.Stage.build plan in
  Alcotest.(check bool) "several stages" true (Sexec.Stage.size g > 1);
  let bad = { g with Sexec.Stage.sink = 0 } in
  assert_code "SA040" (Sanalysis.Stage_audit.check_graph plan bad);
  assert_not_code "SA040" (stage_audit plan)

(* SA041: a stage whose recorded dependencies vanish. *)
let test_sa041_divergent_deps () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let plan = r.Cse.Pipeline.cse_plan in
  let g = Sexec.Stage.build plan in
  let stages =
    Array.map
      (fun (st : Sexec.Stage.stage) ->
        if st.Sexec.Stage.deps = [] then st
        else { st with Sexec.Stage.deps = [] })
      g.Sexec.Stage.stages
  in
  assert_code "SA041"
    (Sanalysis.Stage_audit.check_graph plan { g with Sexec.Stage.stages });
  assert_not_code "SA041" (stage_audit plan)

(* SA042: the conventional baseline shares winner subplans physically, so
   auditing it under CSE expectations warns; under its own expectations it
   is clean. *)
let test_sa042_unspooled_sharing () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let conv = r.Cse.Pipeline.conventional_plan in
  assert_code "SA042"
    (stage_audit ~expect_spooled_sharing:true conv);
  assert_not_code "SA042"
    (stage_audit ~expect_spooled_sharing:false conv)

(* SA043: declaring an interior stage the sink makes the true sink's
   OUTPUT/SEQUENCE interior illegal. *)
let test_sa043_output_outside_sink () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let plan = r.Cse.Pipeline.cse_plan in
  let g = Sexec.Stage.build plan in
  let bad = { g with Sexec.Stage.sink = 0 } in
  assert_code "SA043" (Sanalysis.Stage_audit.check_graph plan bad);
  assert_not_code "SA043" (stage_audit plan)

(* SA044: severing the sink's dependencies strands every upstream stage —
   unreachable stages would break the scheduler's sink-runs-last-and-alone
   invariant. *)
let test_sa044_unreachable_stage () =
  let _, _, r = raw_report Sworkload.Paper_scripts.s1 in
  let plan = r.Cse.Pipeline.cse_plan in
  let g = Sexec.Stage.build plan in
  let stages =
    Array.map
      (fun (st : Sexec.Stage.stage) ->
        if st.Sexec.Stage.id = g.Sexec.Stage.sink then
          { st with Sexec.Stage.deps = [] }
        else st)
      g.Sexec.Stage.stages
  in
  assert_code "SA044"
    (Sanalysis.Stage_audit.check_graph plan { g with Sexec.Stage.stages });
  assert_not_code "SA044" (stage_audit plan)

(* --- trace audit (SA045) -------------------------------------------------- *)

(* A synthetic execution-stage span as the scheduler records it. *)
let stage_span ?(attempt = 1) sid : Sobs.Trace.event =
  {
    Sobs.Trace.kind = Sobs.Trace.Begin;
    name = Printf.sprintf "stage %d" sid;
    pid = Sobs.Trace.pid_exec;
    tid = 1;
    ts = 0.0;
    args =
      [ ("stage", Sobs.Trace.Int sid); ("attempt", Sobs.Trace.Int attempt) ];
  }

let sa045_codes diags =
  List.map (fun (d : Sanalysis.Diag.t) -> d.Sanalysis.Diag.code) diags

let test_sa045_clean () =
  (* one span per (run, stage, attempt), including a retried stage and a
     second engine run restarting attempts at 1 *)
  let attempts = [ [| 2; 1 |]; [| 1; 1 |] ] in
  let events =
    [
      stage_span 0 ~attempt:1;
      stage_span 0 ~attempt:2;
      stage_span 1 ~attempt:1;
      stage_span 0 ~attempt:1;
      stage_span 1 ~attempt:1;
    ]
  in
  Alcotest.(check (list string)) "clean audit" []
    (sa045_codes (Sanalysis.Trace_audit.run ~attempts events))

let test_sa045_missing_and_duplicate () =
  let attempts = [ [| 1; 1 |] ] in
  Alcotest.(check (list string)) "missing span flagged" [ "SA045" ]
    (sa045_codes
       (Sanalysis.Trace_audit.run ~attempts [ stage_span 0 ]));
  Alcotest.(check (list string)) "duplicate span flagged" [ "SA045" ]
    (sa045_codes
       (Sanalysis.Trace_audit.run ~attempts
          [ stage_span 0; stage_span 0; stage_span 1 ]))

let test_sa045_unknown_stage () =
  let attempts = [ [| 1 |] ] in
  Alcotest.(check (list string)) "span for unreported stage flagged"
    [ "SA045" ]
    (sa045_codes
       (Sanalysis.Trace_audit.run ~attempts [ stage_span 0; stage_span 7 ]))

let test_sa045_end_to_end () =
  (* a real traced execution passes the audit *)
  let catalog, _, r = raw_report Sworkload.Paper_scripts.s2 in
  let plan = r.Cse.Pipeline.cse_plan in
  Sobs.Trace.start ();
  let engine = Sexec.Engine.create ~workers:2 ~machines:25 catalog in
  ignore (Sexec.Engine.run engine plan);
  Sobs.Trace.stop ();
  let events = Sobs.Trace.collect () in
  Alcotest.(check (list string)) "traced run audits clean" []
    (sa045_codes
       (Sanalysis.Trace_audit.run
          ~attempts:[ engine.Sexec.Engine.last_attempts ]
          events))

(* --- serve metrics audit (SA046) ------------------------------------------ *)

(* Synthetic snapshot rows for the serve metrics auditor. *)
let m_count name v : Sobs.Metrics.row =
  { Sobs.Metrics.name; labels = []; value = Sobs.Metrics.Count v }

let m_gauge name v : Sobs.Metrics.row =
  { Sobs.Metrics.name; labels = []; value = Sobs.Metrics.Value v }

let m_latency path n : Sobs.Metrics.row =
  let h = Sobs.Hist.make () in
  for _ = 1 to n do
    Sobs.Hist.observe h 0.001
  done;
  {
    Sobs.Metrics.name = "serve.session_seconds";
    labels = [ ("path", path) ];
    value = Sobs.Metrics.Dist (Sobs.Hist.summarize h);
  }

let sa046 ~cache_entries rows =
  List.map
    (fun (d : Sanalysis.Diag.t) -> d.Sanalysis.Diag.code)
    (Sanalysis.Serve_audit.run ~cache_entries rows)

let consistent_rows =
  [
    m_count "serve.sessions_submitted" 6;
    m_count "serve.sessions_failed" 1;
    m_count "serve.cache_hits" 2;
    m_count "serve.cache_misses" 3;
    m_latency "hit" 2;
    m_latency "share" 2;
    m_latency "miss" 1;
    m_gauge "serve.cache_size" 3.0;
  ]

let test_sa046_clean () =
  Alcotest.(check (list string)) "consistent snapshot passes" []
    (sa046 ~cache_entries:3 consistent_rows)

let test_sa046_violations () =
  let flags msg rows cache_entries =
    Alcotest.(check (list string)) msg [ "SA046" ]
      (List.sort_uniq String.compare (sa046 ~cache_entries rows))
  in
  (* a hit neither counted nor failed: hits+misses under-count *)
  flags "lost session classification"
    (m_count "serve.cache_hits" 1 :: List.tl consistent_rows)
    3;
  (* a served session observed in no latency path *)
  flags "lost latency observation"
    (List.map
       (fun (r : Sobs.Metrics.row) ->
         if r.Sobs.Metrics.labels = [ ("path", "miss") ] then m_latency "miss" 0
         else r)
       consistent_rows)
    3;
  (* hit sessions must land on the hit path *)
  flags "hit latency on the wrong path"
    (List.map
       (fun (r : Sobs.Metrics.row) ->
         match r.Sobs.Metrics.labels with
         | [ ("path", "hit") ] -> m_latency "hit" 1
         | [ ("path", "miss") ] -> m_latency "miss" 2
         | _ -> r)
       consistent_rows)
    3;
  (* unknown path label *)
  flags "unknown path label"
    (m_latency "warp" 0 :: consistent_rows)
    3;
  (* stale cache gauge *)
  flags "stale cache-size gauge" consistent_rows 7;
  (* missing gauge while the cache holds entries *)
  flags "missing cache-size gauge"
    (List.filter
       (fun (r : Sobs.Metrics.row) ->
         r.Sobs.Metrics.name <> "serve.cache_size")
       consistent_rows)
    3;
  (* a latency series that is not a histogram at all *)
  Alcotest.(check bool) "non-histogram latency flagged" true
    (List.mem "SA046"
       (sa046 ~cache_entries:3
          ({
             Sobs.Metrics.name = "serve.session_seconds";
             labels = [ ("path", "hit") ];
             value = Sobs.Metrics.Count 2;
           }
          :: List.filter
               (fun (r : Sobs.Metrics.row) ->
                 r.Sobs.Metrics.labels <> [ ("path", "hit") ])
               consistent_rows)))

(* --- framework ----------------------------------------------------------- *)

let test_diag_framework () =
  (* unknown codes are refused *)
  (match Sanalysis.Diag.make ~code:"SA999" ~loc:Sanalysis.Diag.Whole "x" with
  | _ -> Alcotest.fail "SA999 accepted"
  | exception Invalid_argument _ -> ());
  let d1 = Sanalysis.Diag.make ~code:"SA001" ~loc:(Sanalysis.Diag.Group 3) "c" in
  let d2 = Sanalysis.Diag.make ~code:"SA011" ~loc:(Sanalysis.Diag.Group 4) "w" in
  Alcotest.(check int) "SA001 is an error by default" 1
    (List.length (Sanalysis.Diag.errors [ d1; d2 ]));
  Alcotest.(check bool) "SA011 is a warning by default" true
    (Sanalysis.Diag.worst [ d2 ] = Some Sanalysis.Diag.Warning);
  Alcotest.(check int) "errors exit 1" 1 (Sanalysis.Diag.exit_code [ d1 ]);
  Alcotest.(check int) "warnings exit 0" 0 (Sanalysis.Diag.exit_code [ d2 ]);
  Alcotest.(check int) "strict mode fails warnings" 1
    (Sanalysis.Diag.exit_code ~fail_on:Sanalysis.Diag.Warning [ d2 ]);
  Alcotest.(check int) "clean exits 0" 0 (Sanalysis.Diag.exit_code []);
  Alcotest.(check string)
    "summary counts per severity and per code"
    "lint-summary errors=1 warnings=1 SA001=1 SA011=1\n"
    (Fmt.str "%a" Sanalysis.Diag.pp_summary [ d1; d2 ])

let () =
  Alcotest.run "analysis"
    [
      ( "framework",
        [ Alcotest.test_case "diag basics" `Quick test_diag_framework ] );
      ( "clean audits",
        [
          Alcotest.test_case "builtins at 4 and 25 machines" `Quick
            test_builtins_clean;
          Alcotest.test_case "LS1" `Slow test_ls1_clean;
          Alcotest.test_case "LS2" `Slow test_ls2_clean;
          Alcotest.test_case "random scripts" `Slow test_random_clean;
          Alcotest.test_case "memo audit = per-winner reference" `Slow
            test_memo_audit_reference;
          Alcotest.test_case "memo audit reports in requirement order" `Quick
            test_memo_audit_order;
          Alcotest.test_case "audit allocation" `Slow test_audit_allocation;
        ] );
      ( "memo auditor",
        [
          Alcotest.test_case "SA001 cycle" `Quick test_sa001_cycle;
          Alcotest.test_case "SA002 schema" `Quick test_sa002_schema;
          Alcotest.test_case "SA003 wrong cost" `Quick test_sa003_wrong_cost;
          Alcotest.test_case "SA004 invalid plan" `Quick test_sa004_invalid_plan;
          Alcotest.test_case "SA005 unsatisfied" `Quick test_sa005_unsatisfied_req;
          Alcotest.test_case "SA006 contradiction" `Quick
            test_sa006_contradicted_infeasible;
          Alcotest.test_case "SA007 wrong group" `Quick test_sa007_wrong_group;
          Alcotest.test_case "SA007 spool bypass" `Quick test_sa007_spool_bypass;
        ] );
      ( "sharing auditor",
        [
          Alcotest.test_case "SA010 not a spool" `Quick test_sa010_shared_not_spool;
          Alcotest.test_case "SA011 one consumer" `Quick test_sa011_single_consumer;
          Alcotest.test_case "SA012 candidates" `Quick test_sa012_candidates;
          Alcotest.test_case "SA013 double spool" `Quick test_sa013_double_spool;
          Alcotest.test_case "SA013 budget-truncated plan" `Quick
            test_sa013_budget_truncated;
          Alcotest.test_case "SA014 unmarked spool" `Quick test_sa014_unmarked_spool;
        ] );
      ( "pruning audit",
        [
          Alcotest.test_case "SA060 unsound prune" `Quick test_sa060_unsound_prune;
        ] );
      ( "logical lint",
        [
          Alcotest.test_case "SA020 dangling column" `Quick test_sa020_dangling_column;
          Alcotest.test_case "SA021 bad stats" `Quick test_sa021_bad_stats;
          Alcotest.test_case "SA022 ndv > rows" `Quick test_sa022_ndv_exceeds_rows;
        ] );
      ( "plan lint",
        [
          Alcotest.test_case "SA030 bad props" `Quick test_sa030_bad_props;
          Alcotest.test_case "SA032 negative cost" `Quick test_sa032_negative_cost;
          Alcotest.test_case "SA033 anonymous spool" `Quick test_sa033_anonymous_spool;
          Alcotest.test_case "SA034 stale region cache" `Quick
            test_sa034_stale_region_cache;
        ] );
      ( "stage audit",
        [
          Alcotest.test_case "SA040 not topological" `Quick
            test_sa040_not_topological;
          Alcotest.test_case "SA041 divergent deps" `Quick
            test_sa041_divergent_deps;
          Alcotest.test_case "SA042 unspooled sharing" `Quick
            test_sa042_unspooled_sharing;
          Alcotest.test_case "SA044 unreachable stage" `Quick
            test_sa044_unreachable_stage;
          Alcotest.test_case "SA043 output outside sink" `Quick
            test_sa043_output_outside_sink;
        ] );
      ( "trace audit",
        [
          Alcotest.test_case "SA045 clean multiset" `Quick test_sa045_clean;
          Alcotest.test_case "SA045 missing and duplicate" `Quick
            test_sa045_missing_and_duplicate;
          Alcotest.test_case "SA045 unknown stage" `Quick
            test_sa045_unknown_stage;
          Alcotest.test_case "SA045 end to end" `Quick test_sa045_end_to_end;
        ] );
      ( "serve metrics audit",
        [
          Alcotest.test_case "SA046 clean snapshot" `Quick test_sa046_clean;
          Alcotest.test_case "SA046 violations" `Quick test_sa046_violations;
        ] );
    ]
