(* Round-pruning soundness.

   The two pruning layers — dominance filtering of round candidates and
   the branch-and-bound round abort ([Optimizer.Above_bound]) — are pure
   search-space reductions: they must never change the chosen plan.
   Equivalence suite: the builtin workloads (S1-S4, IND, LS1, LS2), 30
   random 8-statement scripts and one round-heavy 10-statement script
   optimized twice, pruned (default) vs exhaustive
   ([Cse.Config.no_pruning]), asserting identical chosen-plan cost,
   operator multiset and canonical algebra forms.  Unit tests pin the
   dominance order's edge cases, through [History.record]/[candidates],
   and the pruned-space round accounting. *)

open Sphys

let exhaustive = Cse.Config.no_pruning Cse.Config.default

(* Canonical forms of every output of a plan, interned in [ctx] so the
   ids are comparable across the two runs. *)
let canon_outputs ctx plan =
  Sanalysis.Canon.of_physical ctx plan
  |> List.map (fun ((o : Sanalysis.Canon.out), _) ->
         (o.Sanalysis.Canon.file, o.Sanalysis.Canon.cid))
  |> List.sort compare

let assert_equivalent name ?cluster ~catalog script =
  let pruned = Cse.Pipeline.run ?cluster ~catalog script in
  let exact = Cse.Pipeline.run ~config:exhaustive ?cluster ~catalog script in
  if not (Float.equal pruned.Cse.Pipeline.cse_cost exact.Cse.Pipeline.cse_cost)
  then
    Alcotest.failf "%s: pruned cost %.17g <> exhaustive cost %.17g" name
      pruned.Cse.Pipeline.cse_cost exact.Cse.Pipeline.cse_cost;
  Alcotest.(check (list string))
    (name ^ ": operator multiset")
    (Thelpers.op_names exact.Cse.Pipeline.cse_plan)
    (Thelpers.op_names pruned.Cse.Pipeline.cse_plan);
  let ctx = Sanalysis.Canon.create () in
  Alcotest.(check (list (pair string int)))
    (name ^ ": canonical forms")
    (canon_outputs ctx exact.Cse.Pipeline.cse_plan)
    (canon_outputs ctx pruned.Cse.Pipeline.cse_plan);
  (* pruning only removes rounds; it never executes more than the
     exhaustive run and never spends more optimizer tasks *)
  if pruned.Cse.Pipeline.rounds_executed > exact.Cse.Pipeline.rounds_executed
  then
    Alcotest.failf "%s: pruned run executed more rounds (%d > %d)" name
      pruned.Cse.Pipeline.rounds_executed exact.Cse.Pipeline.rounds_executed;
  (pruned, exact)

let test_builtins_equivalent () =
  List.iter
    (fun (name, script) ->
      ignore
        (assert_equivalent name ~catalog:(Thelpers.default_catalog ()) script))
    Thelpers.small_builtins

let large_equivalent name =
  let script, catalog = Thelpers.builtin name in
  ignore (assert_equivalent name ~catalog script)

let test_ls1_equivalent () = large_equivalent "LS1"
let test_ls2_equivalent () = large_equivalent "LS2"

(* Seed 3 at 10 statements is the round-heavy input: 5 127 sequential
   rounds on this cluster, 4 340 of them aborted by the bound and 768
   dominance-pruned; the 8-statement scripts reach at most 400. *)
let test_random_equivalent () =
  let cluster = Scost.Cluster.with_machines 7 Scost.Cluster.default in
  List.iter
    (fun (seed, statements) ->
      let script = Sworkload.Random_gen.generate ~seed ~statements () in
      let catalog = Sworkload.Random_gen.catalog () in
      ignore
        (assert_equivalent
           (Printf.sprintf "seed %d, %d statements" seed statements)
           ~cluster ~catalog script))
    (List.init 30 (fun i -> (i + 1, 8)) @ [ (3, 10) ])

(* A generated serve stream also optimizes combined multi-script memos.
   [serve_costs config] drives the serve loop over seed 7's 200 scripts
   and reads back, from the JSON report, one row per batch (its combined
   cost) and per session (its CSE and conventional costs). *)
let serve_costs config =
  let buf = Buffer.create 65536 in
  let out = Format.formatter_of_buffer buf in
  let err = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let stream = Sworkload.Session_gen.generate ~seed:7 ~scripts:200 () in
  let engine = Sserve.Engine.create ~config (Sworkload.Session_gen.catalog ()) in
  (match
     Sserve.Driver.run ~out ~err ~json:true engine
       ~next:(Sserve.Session.of_string stream)
   with
  | Ok () -> Format.pp_print_flush out ()
  | Error (`Msg m) -> Alcotest.failf "serve failed: %s" m);
  let field name j = Option.get (Sobs.Json.member name j) in
  let cost name j = Sobs.Json.to_float (field name j) in
  let list name j = Option.get (Sobs.Json.to_list (field name j)) in
  list "batches_detail" (field "serve" (Sobs.Json.parse (Buffer.contents buf)))
  |> List.concat_map (fun b ->
         ("batch", cost "combined_cost" b, None)
         :: List.map
              (fun s ->
                ( Option.get (Sobs.Json.to_str (field "id" s)),
                  cost "cse_cost" s,
                  cost "conventional_cost" s ))
              (list "sessions" b))

(* The pruning layers must not move a cost there either, and no
   session's CSE plan costs more than its conventional plan. *)
let test_serve_equivalent () =
  let pruned = serve_costs Cse.Config.default in
  let cost = Alcotest.(option (float 0.0)) in
  Alcotest.(check (list (triple string cost cost)))
    "every batch's combined cost, every session's costs"
    (serve_costs exhaustive) pruned;
  List.iter
    (function
      | id, Some cse, Some conv when cse > conv ->
          Alcotest.failf "%s: cse_cost %.17g > conventional_cost %.17g" id cse
            conv
      | _ -> ())
    pruned;
  if not (List.exists (fun (id, c, _) -> id = "batch" && c <> None) pruned)
  then Alcotest.fail "no combined batch in the stream"

(* The pruned run must actually prune somewhere on the workload the
   paper's Figure 3(c) shape stresses (S4: four interacting shared
   groups), or the acceptance numbers are vacuous.  On S4 the reduction
   comes from the branch-and-bound abort (its candidate property sets
   hold no sort-prefix chains); dominance filtering fires on S2, whose
   history records a sorted and an unsorted-prefix variant of the same
   partitioning. *)
let test_s4_prunes () =
  let r, exact =
    assert_equivalent "S4"
      ~catalog:(Thelpers.default_catalog ())
      Sworkload.Paper_scripts.s4
  in
  if r.Cse.Pipeline.rounds_aborted_bound = 0 then
    Alcotest.fail "S4: the bound aborted no rounds";
  if r.Cse.Pipeline.rounds_executed * 2 > exact.Cse.Pipeline.rounds_executed
  then
    Alcotest.failf "S4: rounds only dropped %d -> %d (< 2x)"
      exact.Cse.Pipeline.rounds_executed r.Cse.Pipeline.rounds_executed;
  let r2 =
    Cse.Pipeline.run
      ~catalog:(Thelpers.default_catalog ())
      Sworkload.Paper_scripts.s2
  in
  if r2.Cse.Pipeline.rounds_pruned = 0 then
    Alcotest.fail "S2: dominance filtering removed no rounds"

(* Every round of the pruned sequential space is either executed or
   aborted by the bound; nothing is lost or double-counted. *)
let test_round_accounting () =
  List.iter
    (fun (name, script) ->
      let r = Cse.Pipeline.run ~catalog:(Thelpers.default_catalog ()) script in
      let space = r.Cse.Pipeline.rounds_sequential - r.Cse.Pipeline.rounds_pruned in
      let spent =
        r.Cse.Pipeline.rounds_executed + r.Cse.Pipeline.rounds_aborted_bound
      in
      if spent <> space then
        Alcotest.failf "%s: executed %d + aborted %d <> sequential %d - pruned %d"
          name r.Cse.Pipeline.rounds_executed r.Cse.Pipeline.rounds_aborted_bound
          r.Cse.Pipeline.rounds_sequential r.Cse.Pipeline.rounds_pruned)
    Thelpers.small_builtins

(* An exhaustive run records no prunes, no aborts and no reuse hits. *)
let test_noprune_counters_zero () =
  let r =
    Cse.Pipeline.run ~config:exhaustive
      ~catalog:(Thelpers.default_catalog ())
      Sworkload.Paper_scripts.s4
  in
  Alcotest.(check int) "rounds_pruned" 0 r.Cse.Pipeline.rounds_pruned;
  Alcotest.(check int) "rounds_aborted" 0 r.Cse.Pipeline.rounds_aborted_bound;
  Alcotest.(check int)
    "rounds = sequential" r.Cse.Pipeline.rounds_sequential
    r.Cse.Pipeline.rounds_executed

(* --- dominance order unit tests ----------------------------------------- *)

let hx cols sort =
  Reqprops.make (Reqprops.Hash_exact (Thelpers.colset cols)) (Sortorder.asc sort)

let record_all h gid props = List.iter (Cse.History.record h gid) props

(* [dominates ~by p] as the filter decides it: [p] and [by] recorded at
   one shared group, and [p] dropped in favour of [by]. *)
let dominates ~by p =
  let h = Cse.History.create Cse.Config.default in
  record_all h 0 [ p; by ];
  let _, pairs = Cse.History.candidates h 0 in
  List.exists
    (fun (d, k) -> Reqprops.equal d p && Reqprops.equal k by)
    pairs

let test_dominates_basics () =
  (* strict sort prefix over the same concrete partitioning dominates *)
  Alcotest.(check bool)
    "strict prefix" true
    (dominates ~by:(hx [ "a"; "b" ] [ "x"; "y" ]) (hx [ "a"; "b" ] [ "x" ]));
  (* equal sorts: equal-cost candidates, neither side dominates (the
     history holds one entry, which a reflexive order would drop with no
     kept dominator left) *)
  Alcotest.(check bool)
    "equal sorts" false
    (dominates ~by:(hx [ "a"; "b" ] [ "x" ]) (hx [ "a"; "b" ] [ "x" ]));
  (* an unsorted candidate is the cheap baseline; never dropped *)
  Alcotest.(check bool)
    "empty dropped sort" false
    (dominates ~by:(hx [ "a"; "b" ] [ "x" ]) (hx [ "a"; "b" ] []));
  (* different partitionings are not interchangeable *)
  Alcotest.(check bool)
    "different partitioning" false
    (dominates ~by:(hx [ "a" ] [ "x"; "y" ]) (hx [ "a"; "b" ] [ "x" ]));
  (* non-prefix sorts are incomparable *)
  Alcotest.(check bool)
    "non-prefix sorts" false
    (dominates ~by:(hx [ "a" ] [ "y"; "x" ]) (hx [ "a" ] [ "x" ]));
  (* Any never participates on either side *)
  let any s = Reqprops.make Reqprops.Any (Sortorder.asc s) in
  Alcotest.(check bool)
    "Any dropped" false
    (dominates ~by:(any [ "x"; "y" ]) (any [ "x" ]));
  Alcotest.(check bool)
    "Any vs hash" false
    (dominates ~by:(hx [ "a" ] [ "x"; "y" ]) (any [ "x" ]));
  (* Serial pins are concrete and comparable *)
  let serial s = Reqprops.make Reqprops.Serial_req (Sortorder.asc s) in
  Alcotest.(check bool)
    "serial prefix" true
    (dominates ~by:(serial [ "x"; "y" ]) (serial [ "x" ]))

let props_t = Alcotest.testable Reqprops.pp Reqprops.equal

let test_candidates_filters_chain () =
  let h = Cse.History.create Cse.Config.default in
  let chain =
    [ hx [ "a" ] [ "x" ]; hx [ "a" ] [ "x"; "y" ]; hx [ "a" ] [ "x"; "y"; "z" ] ]
  in
  record_all h 7 chain;
  let kept, pairs = Cse.History.candidates h 7 in
  (* only the longest sort survives; both dropped candidates point at the
     kept transitive dominator, not at an intermediate dropped one *)
  Alcotest.(check (list props_t)) "kept" [ hx [ "a" ] [ "x"; "y"; "z" ] ] kept;
  Alcotest.(check int) "dropped" 2 (List.length pairs);
  List.iter
    (fun (_, by) ->
      Alcotest.(check props_t) "dominator kept" (hx [ "a" ] [ "x"; "y"; "z" ]) by)
    pairs

let test_candidates_edge_cases () =
  (* single-member class: nothing to prune *)
  let h = Cse.History.create Cse.Config.default in
  record_all h 1 [ hx [ "a" ] [ "x" ] ];
  let kept, pairs = Cse.History.candidates h 1 in
  Alcotest.(check int) "single kept" 1 (List.length kept);
  Alcotest.(check int) "single pairs" 0 (List.length pairs);
  (* unrecorded group: empty property set *)
  let kept, pairs = Cse.History.candidates h 99 in
  Alcotest.(check int) "empty kept" 0 (List.length kept);
  Alcotest.(check int) "empty pairs" 0 (List.length pairs);
  (* equal-cost incomparable candidates all survive *)
  record_all h 2
    [ hx [ "a" ] [ "x" ]; hx [ "b" ] [ "x" ]; hx [ "a" ] [ "y" ] ];
  let kept, pairs = Cse.History.candidates h 2 in
  Alcotest.(check int) "incomparable kept" 3 (List.length kept);
  Alcotest.(check int) "incomparable pairs" 0 (List.length pairs);
  (* the unsorted baseline candidate survives next to sorted ones *)
  record_all h 3 [ hx [ "a" ] []; hx [ "a" ] [ "x" ] ];
  let kept, _ = Cse.History.candidates h 3 in
  Alcotest.(check int) "baseline kept" 2 (List.length kept)

let test_candidates_disabled () =
  let h = Cse.History.create exhaustive in
  record_all h 5 [ hx [ "a" ] [ "x" ]; hx [ "a" ] [ "x"; "y" ] ];
  let kept, pairs = Cse.History.candidates h 5 in
  Alcotest.(check int) "all kept" 2 (List.length kept);
  Alcotest.(check int) "no pairs" 0 (List.length pairs)

let () =
  Alcotest.run "round-pruning"
    [
      ( "equivalence",
        [
          Alcotest.test_case "builtins pruned = exhaustive" `Quick
            test_builtins_equivalent;
          Alcotest.test_case "LS1 pruned = exhaustive" `Slow test_ls1_equivalent;
          Alcotest.test_case "LS2 pruned = exhaustive" `Slow test_ls2_equivalent;
          Alcotest.test_case "30 random scripts" `Slow test_random_equivalent;
          Alcotest.test_case "serve stream pruned = exhaustive" `Slow
            test_serve_equivalent;
          Alcotest.test_case "S4 actually prunes" `Quick test_s4_prunes;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "rounds partition the pruned space" `Quick
            test_round_accounting;
          Alcotest.test_case "no-prune counters stay zero" `Quick
            test_noprune_counters_zero;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "order basics" `Quick test_dominates_basics;
          Alcotest.test_case "chain collapses to kept dominator" `Quick
            test_candidates_filters_chain;
          Alcotest.test_case "edge cases" `Quick test_candidates_edge_cases;
          Alcotest.test_case "disabled filter keeps everything" `Quick
            test_candidates_disabled;
        ] );
    ]
