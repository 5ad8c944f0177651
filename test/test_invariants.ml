(* Property-based invariant tests over the core data structures: round
   enumeration, history expansion, expression evaluation, and the
   large-script plans (static validation + sharing structure). *)

open Sphys

let cs = Thelpers.colset

(* --- rounds: random class structures ------------------------------------- *)

let classes_gen =
  QCheck.Gen.(
    let props_gen = map (fun n -> n + 1) (int_bound 4) in
    let group_gen = props_gen in
    let class_gen = list_size (int_range 1 3) group_gen in
    list_size (int_range 1 3) class_gen)

(* materialize a class spec: groups get unique ids, [n] distinct props *)
let materialize spec =
  let gid = ref 0 in
  List.map
    (List.map (fun n ->
         incr gid;
         ( !gid,
           List.init n (fun i ->
               Reqprops.make
                 (Reqprops.Hash_exact (cs [ Printf.sprintf "c%d_%d" !gid i ]))
                 []) )))
    spec

let classes_arb =
  QCheck.make
    ~print:(fun spec ->
      String.concat ";"
        (List.map (fun c -> String.concat "," (List.map string_of_int c)) spec))
    classes_gen

let prop_round_count =
  Thelpers.qtest ~count:200 "rounds = sequential_total" classes_arb (fun spec ->
      let classes = materialize spec in
      List.length (Thelpers.rounds classes) = Cse.Rounds.sequential_total classes)

let prop_rounds_complete =
  Thelpers.qtest ~count:200 "every round assigns every group" classes_arb
    (fun spec ->
      let classes = materialize spec in
      let all_groups =
        List.concat_map (List.map fst) classes |> List.sort Int.compare
      in
      List.for_all
        (fun a -> List.sort Int.compare (List.map fst a) = all_groups)
        (Thelpers.rounds classes))

let prop_rounds_distinct =
  Thelpers.qtest ~count:200 "no duplicate rounds" classes_arb (fun spec ->
      let classes = materialize spec in
      let canon a =
        List.sort compare (List.map (fun (g, p) -> (g, Reqprops.to_key p)) a)
      in
      let rounds = List.map canon (Thelpers.rounds classes) in
      List.length rounds = List.length (List.sort_uniq compare rounds))

let prop_sequential_le_naive =
  Thelpers.qtest ~count:200 "sequential <= naive" classes_arb (fun spec ->
      let classes = materialize spec in
      Cse.Rounds.sequential_total classes <= Cse.Rounds.naive_total classes)

(* --- history expansion ----------------------------------------------------- *)

let colset_gen =
  QCheck.Gen.(
    map
      (fun l -> Relalg.Colset.of_list l)
      (list_size (int_range 1 4) (oneofl [ "A"; "B"; "C"; "D" ])))

let colset_arb = QCheck.make ~print:Relalg.Colset.to_string colset_gen

(* The entries one recorded request expands to in the property history. *)
let expand req =
  let h = Cse.History.create Cse.Config.default in
  Cse.History.record h 0 req;
  Cse.History.ranked_properties h 0

let prop_expansion_count =
  Thelpers.qtest "range expands to 2^n - 1 entries" colset_arb (fun c ->
      let entries = expand (Reqprops.make (Reqprops.Hash_subset c) []) in
      List.length entries = (1 lsl Relalg.Colset.cardinal c) - 1)

let prop_expansion_sound =
  Thelpers.qtest "every expanded entry satisfies the range" colset_arb (fun c ->
      let entries = expand (Reqprops.make (Reqprops.Hash_subset c) []) in
      List.for_all
        (fun (e : Reqprops.t) ->
          match e.Reqprops.part with
          | Reqprops.Hash_exact s ->
              Reqprops.part_satisfied (Partition.Hashed s) (Reqprops.Hash_subset c)
          | _ -> false)
        entries)

(* --- expression evaluation -------------------------------------------------- *)

let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun c -> Relalg.Expr.Col c) (oneofl [ "A"; "B" ]);
              map (fun i -> Relalg.Expr.Lit (Relalg.Value.Int i)) small_int;
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              map2 (fun a b -> Relalg.Expr.Binop (Relalg.Expr.Add, a, b)) sub sub;
              map2 (fun a b -> Relalg.Expr.Binop (Relalg.Expr.Mul, a, b)) sub sub;
              map2 (fun a b -> Relalg.Expr.Cmp (Relalg.Expr.Le, a, b)) sub sub;
              map2 (fun a b -> Relalg.Expr.And (a, b)) sub sub;
            ]))

let expr_arb = QCheck.make ~print:Relalg.Expr.to_string expr_gen

let schema_ab =
  [ Relalg.Schema.column "A" Relalg.Schema.Tint;
    Relalg.Schema.column "B" Relalg.Schema.Tint ]

let schema_xy =
  [ Relalg.Schema.column "X_A" Relalg.Schema.Tint;
    Relalg.Schema.column "X_B" Relalg.Schema.Tint ]

(* renaming columns and renaming the schema commute *)
let prop_rename_commutes =
  Thelpers.qtest ~count:300 "rename/eval commute"
    QCheck.(pair expr_arb (pair small_int small_int))
    (fun (e, (a, b)) ->
      let row = [| Relalg.Value.Int a; Relalg.Value.Int b |] in
      let renamed = Relalg.Expr.rename (fun c -> "X_" ^ c) e in
      Relalg.Value.equal
        (Relalg.Expr.ceval row (Relalg.Expr.compile schema_ab e))
        (Relalg.Expr.ceval row (Relalg.Expr.compile schema_xy renamed)))

(* columns of an expression never grow under evaluation-preserving rename *)
let prop_columns_rename =
  Thelpers.qtest ~count:300 "columns track rename" expr_arb (fun e ->
      let renamed = Relalg.Expr.rename (fun c -> "X_" ^ c) e in
      Relalg.Colset.cardinal (Relalg.Expr.columns renamed)
      = Relalg.Colset.cardinal (Relalg.Expr.columns e))

(* --- large scripts through the full pipeline ------------------------------- *)

let ls_report name =
  let script, catalog = Thelpers.builtin name in
  let budget = Sopt.Budget.create ~max_seconds:30.0 () in
  Cse.Pipeline.run ~budget ~catalog script

let test_ls1_plan_valid () =
  let r = ls_report "LS1" in
  Thelpers.assert_valid_plan "LS1 cse" r.Cse.Pipeline.cse_plan;
  Thelpers.assert_valid_plan "LS1 conv" r.Cse.Pipeline.conventional_plan;
  Alcotest.(check bool) "cse cheaper" true
    (r.Cse.Pipeline.cse_cost <= r.Cse.Pipeline.conventional_cost);
  let distinct, refs = Scost.Dagcost.spool_counts r.Cse.Pipeline.cse_plan in
  Alcotest.(check int) "all four shared groups materialized once" 4 distinct;
  Alcotest.(check int) "nine references (3x2 + 1x3)" 9 refs

let test_ls1_every_lca_found () =
  let r = ls_report "LS1" in
  Alcotest.(check int) "four LCAs" 4 (List.length r.Cse.Pipeline.lcas)

let test_skew_model () =
  Alcotest.(check (float 0.01)) "few keys limit parallelism" 7.5
    (Scost.Costmodel.key_parallelism ~machines:10.0 30.0);
  Alcotest.(check (float 0.5)) "many keys reach full parallelism" 25.0
    (Scost.Costmodel.key_parallelism ~machines:25.0 1.0e6);
  Alcotest.(check (float 0.01)) "flat model ignores keys" 25.0
    (Scost.Costmodel.key_parallelism ~skew_aware:false ~machines:25.0 2.0);
  (* the skew-aware optimization still produces a valid, cheaper plan *)
  let flat = { Scost.Cluster.default with Scost.Cluster.skew_aware = false } in
  let r =
    Cse.Pipeline.run ~cluster:flat ~catalog:(Relalg.Catalog.default ())
      Sworkload.Paper_scripts.s1
  in
  Thelpers.assert_valid_plan "flat cluster" r.Cse.Pipeline.cse_plan;
  Alcotest.(check bool) "cse still cheaper" true
    (r.Cse.Pipeline.cse_cost <= r.Cse.Pipeline.conventional_cost)

let test_dot_export () =
  let r =
    Cse.Pipeline.run ~catalog:(Relalg.Catalog.default ())
      Sworkload.Paper_scripts.s1
  in
  let dot = Sphys.Plan_pp.to_dot r.Cse.Pipeline.cse_plan in
  Alcotest.(check bool) "digraph" true
    (String.starts_with ~prefix:"digraph" dot);
  (* the shared spool appears once as a node but is referenced twice *)
  let count_sub needle s =
    let n = String.length needle and m = String.length s in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one spool node" 1 (count_sub "Spool" dot);
  (* edges = nodes - 1 + 1 extra reference to the shared spool *)
  let nodes = count_sub "label=" dot and edges = count_sub " -> " dot in
  Alcotest.(check int) "dag edge count" nodes edges;
  (* both renderings print one figure, the region cost, under [cost=] *)
  let cost_figures s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '"')
    |> List.concat_map (String.split_on_char '\n')
    |> List.filter (String.starts_with ~prefix:"cost=")
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "dot and pp print the same cost= figures"
    (cost_figures (Fmt.str "%a" Sphys.Plan_pp.pp r.Cse.Pipeline.cse_plan))
    (cost_figures dot)

(* --- cached DAG costing ----------------------------------------------------- *)

(* The region summaries cached at construction ([Plan.sbase]/[Plan.srefs])
   must reproduce the walking deduplicated cost on every node of every
   final plan -- bit-for-bit on spool-free subplans, and up to float
   summation order (1e-9 relative) where spools reorder the sums.  And
   branch-and-bound's bound, the operator cost plus one [Dagcost]
   accumulator over the completed children, must be the node's cost once
   every child is in (short by the one read at a spool): a naive sum of
   the children's costs would pay a production shared by two children
   twice and overshoot, so the bound could cut the cheapest candidate. *)
let assert_cached_cost_agrees ~cluster name plan =
  let checked = ref 0 in
  let far a b = Float.abs (a -. b) > 1e-9 *. Float.max 1.0 (Float.abs b) in
  Plan.fold
    (fun () (n : Plan.t) ->
      incr checked;
      let walked = Scost.Dagcost.cost cluster n in
      let cached = Scost.Dagcost.cached_cost cluster n in
      if n.Plan.srefs = [] && n.Plan.op <> Physop.P_spool then begin
        if cached <> walked then
          Alcotest.failf "%s: spool-free %s: cached %.17g, walked %.17g" name
            (Physop.short_name n.Plan.op) cached walked
      end
      else if far cached walked then
        Alcotest.failf "%s: %s: cached %.17g, walked %.17g" name
          (Physop.short_name n.Plan.op) cached walked;
      let acc = Scost.Dagcost.create cluster in
      List.iter (Scost.Dagcost.add acc) n.Plan.children;
      let bound = n.Plan.op_cost +. Scost.Dagcost.sum acc in
      let read =
        if n.Plan.op = Physop.P_spool then
          Scost.Costmodel.spool_read_cost cluster n
        else 0.0
      in
      if far (bound +. read) cached then
        Alcotest.failf "%s: %s: op_cost + children's closure %.17g, cost %.17g"
          name (Physop.short_name n.Plan.op) bound cached)
    () plan;
  Alcotest.(check bool) (name ^ ": visited nodes") true (!checked > 0)

let assert_plans_agree ~cluster name (r : Cse.Pipeline.report) =
  assert_cached_cost_agrees ~cluster (name ^ " cse") r.cse_plan;
  assert_cached_cost_agrees ~cluster (name ^ " phase 1") r.phase1_plan;
  assert_cached_cost_agrees ~cluster (name ^ " conv") r.conventional_plan

(* Every builtin's report, unbudgeted, on its registry catalog. *)
let builtin_reports () =
  List.map
    (fun (w : Sworkload.Builtin.t) ->
      (w.name, Cse.Pipeline.run ~catalog:(w.catalog ()) w.script))
    Sworkload.Builtin.all

let test_cached_cost_builtins () =
  List.iter
    (fun (name, r) -> assert_plans_agree ~cluster:Scost.Cluster.default name r)
    (builtin_reports ())

let test_cached_cost_random () =
  let cluster = Scost.Cluster.default in
  for seed = 1 to 25 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:8 () in
    let catalog = Sworkload.Random_gen.catalog () in
    assert_plans_agree ~cluster (Printf.sprintf "seed %d" seed)
      (Cse.Pipeline.run ~cluster ~catalog script)
  done

(* [Plan_pp] prints each node's region cost, so no figure on a CSE plan
   exceeds the plan's cost (compared at the printed precision); a
   tree-wise total would count a shared spool once per consumer.  The
   spool-free conventional plan prints the tree totals it always printed,
   pinned here by the digest of its text. *)
let conventional_digests =
  [
    ("S1", "c261aa012aae675dec8663c2b1b66711");
    ("S2", "6fa495c5f4e9c129d4c70ba8770e3a75");
    ("S3", "ae5f7e3d74b45e016f77b83ad548e84d");
    ("S4", "6bf38d2a7f9a7cd4813dfb851d63ac22");
    ("IND", "afae8e95908790cd644815813d0f61c7");
    ("LS1", "923b875fe29617337fa2a7d3f2a6a18c");
    ("LS2", "135e85de2e0e797d6f7c0940526ccd7d");
  ]

let test_printed_costs () =
  List.iter
    (fun (name, (r : Cse.Pipeline.report)) ->
      let limit = float_of_string (Printf.sprintf "%.3g" r.cse_cost) in
      String.split_on_char '\n' (Fmt.str "%a" Plan_pp.pp r.cse_plan)
      |> List.iter (fun line ->
             match List.rev (String.split_on_char '=' line) with
             | figure :: before :: _
               when String.ends_with ~suffix:" cost" before
                    && float_of_string figure > limit ->
                 Alcotest.failf "%s: prints cost=%s, plan costs %.5g" name
                   figure r.cse_cost
             | _ -> ());
      Alcotest.(check string)
        (name ^ ": conventional plan text")
        (List.assoc name conventional_digests)
        (Digest.to_hex
           (Digest.string (Fmt.str "%a" Plan_pp.pp r.conventional_plan))))
    (builtin_reports ())

(* --- requirement interning ------------------------------------------------- *)

let reqs_spread () =
  let cs = Thelpers.colset in
  let parts =
    [
      Reqprops.Any;
      Reqprops.Serial_req;
      Reqprops.Hash_subset (cs [ "A" ]);
      Reqprops.Hash_subset (cs [ "A"; "B" ]);
      Reqprops.Hash_exact (cs [ "A" ]);
      Reqprops.Hash_exact (cs [ "B"; "C" ]);
    ]
  in
  let sorts =
    [
      [];
      [ ("A", Sortorder.Asc) ];
      [ ("A", Sortorder.Desc) ];
      [ ("B", Sortorder.Asc); ("C", Sortorder.Asc) ];
    ]
  in
  List.concat_map (fun p -> List.map (fun s -> Reqprops.make p s) sorts) parts

(* A spread of distinct extended requirements: every partitioning shape,
   several sort orders, and enforcement maps over a couple of group ids,
   built in one run's table (fresh allocations on every call). *)
let distinct_extreqs intern =
  let cs = Thelpers.colset in
  let enforces =
    [
      [];
      [ (3, Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) []) ];
      [
        (7, Reqprops.make Reqprops.Serial_req [ ("A", Sortorder.Asc) ]);
        (3, Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) []);
      ];
    ]
  in
  List.concat_map
    (fun req ->
      List.map
        (fun enforce ->
          Sopt.Extreq.make intern req (Sopt.Intern.of_list intern enforce))
        enforces)
    (reqs_spread ())

(* The identity of an extended requirement within its run. *)
let ids (x : Sopt.Extreq.t) = (x.Sopt.Extreq.rid, x.Sopt.Extreq.enforce.Sopt.Intern.id)

(* Interning is injective on distinct requirements and enforcement maps,
   stable on re-interning (including structurally-equal rebuilt values, in
   any order), dense within one run's table, and a map's id carries
   exactly its sorted bindings. *)
let test_intern_ids () =
  let intern = Sopt.Intern.create () in
  let reqs = distinct_extreqs intern in
  let keys = List.map ids reqs in
  Alcotest.(check int)
    "distinct requirements get distinct ids" (List.length reqs)
    (List.length (List.sort_uniq compare keys));
  let again = List.map ids (List.rev (distinct_extreqs intern)) in
  Alcotest.(check (list (pair int int))) "equal requirements share their id"
    (List.rev keys) again;
  let rids = List.sort_uniq Int.compare (List.map fst keys) in
  Alcotest.(check (list int)) "requirement ids are dense"
    (List.init (List.length (reqs_spread ())) Fun.id)
    rids;
  List.iter
    (fun (x : Sopt.Extreq.t) ->
      let b = x.Sopt.Extreq.enforce.Sopt.Intern.bindings in
      Alcotest.(check bool) "bindings sorted by group" true
        (b = List.sort_uniq compare b);
      List.iter
        (fun (gid, p) ->
          Alcotest.(check bool) "enforcement lookup round-trips" true
            (Sopt.Extreq.enforcement x gid = Some p))
        b)
    reqs;
  (* a second run's table starts over: ids belong to one run *)
  let other = Sopt.Intern.create () in
  Alcotest.(check (list (pair int int))) "a fresh table assigns the same ids"
    keys
    (List.map ids (distinct_extreqs other))

(* Enforcement maps of 1-20 entries that differ only in their last entry
   (the largest group id) get distinct ids; rebuilding either from its
   bindings, in reverse order, gives back the same id. *)
let prop_intern_last_entry =
  let reqs = Array.of_list (reqs_spread ()) in
  let entry = QCheck.Gen.(pair (int_bound 3) (int_bound (Array.length reqs - 1))) in
  let gen =
    QCheck.Gen.(
      int_range 0 19 >>= fun n ->
      list_repeat n entry >>= fun prefix ->
      pair entry entry >>= fun (a, b) -> return (prefix, a, b))
  in
  let print (prefix, a, b) =
    let e (g, r) = Printf.sprintf "+%d:%d" g r in
    String.concat " " (List.map e prefix) ^ " | " ^ e a ^ " vs " ^ e b
  in
  Thelpers.qtest ~count:300 "maps differing in their last entry"
    (QCheck.make ~print gen) (fun (prefix, a, b) ->
      let intern = Sopt.Intern.create () in
      (* strictly increasing group ids: gaps drawn from [prefix] *)
      let bindings last =
        let gid = ref 0 in
        List.map
          (fun (gap, r) ->
            gid := !gid + gap + 1;
            (!gid, reqs.(r)))
          (prefix @ [ last ])
      in
      let ba = bindings a and bb = bindings b in
      let ma = Sopt.Intern.of_list intern ba in
      let mb = Sopt.Intern.of_list intern bb in
      let ma' = Sopt.Intern.of_list intern (List.rev ba) in
      let mb' = Sopt.Intern.of_list intern (List.rev bb) in
      ma'.Sopt.Intern.id = ma.Sopt.Intern.id
      && mb'.Sopt.Intern.id = mb.Sopt.Intern.id
      && ma.Sopt.Intern.bindings = ba
      && (a = b) = (ma.Sopt.Intern.id = mb.Sopt.Intern.id))

(* The per-run counter deltas surfaced in the pipeline report: every
   budget tick is mirrored in the optimizer.tasks counter, and winner /
   intern lookups are counted. *)
let test_report_counters () =
  let r =
    Cse.Pipeline.run
      ~catalog:(Relalg.Catalog.default ())
      Sworkload.Paper_scripts.s1
  in
  let get n =
    Option.value ~default:0 (List.assoc_opt n r.Cse.Pipeline.counters)
  in
  Alcotest.(check int) "tasks counter mirrors the budget ticks"
    (r.Cse.Pipeline.conventional_tasks + r.Cse.Pipeline.cse_tasks)
    (get "optimizer.tasks");
  Alcotest.(check bool) "winner hits counted" true
    (get "optimizer.winner_hits" > 0);
  Alcotest.(check bool) "winner misses mirror the tasks" true
    (get "optimizer.winner_misses" = get "optimizer.tasks");
  Alcotest.(check bool) "intern lookups counted" true (get "intern.hits" > 0)

(* The S1 counts are pinned: they cover the conventional pass and both
   CSE phases of the run's one optimizer context, and BENCH_opt.json's
   counters object for S1 holds the same figures. *)
let test_report_counters_pinned () =
  let r =
    Cse.Pipeline.run
      ~catalog:(Relalg.Catalog.default ())
      Sworkload.Paper_scripts.s1
  in
  Alcotest.(check (list (pair string int))) "S1 counters"
    [
      ("intern.hits", 396);
      ("intern.misses", 47);
      ("optimizer.rule_firings", 3);
      ("optimizer.tasks", 310);
      ("optimizer.winner_hits", 484);
      ("optimizer.winner_misses", 310);
    ]
    r.Cse.Pipeline.counters

(* An un-enforced and an enforced variant of the same conventional
   requirement must never share an id (rounds with different assignments
   must not reuse each other's winners). *)
let test_intern_enforcement_distinct () =
  let intern = Sopt.Intern.create () in
  let pinned =
    Reqprops.make (Reqprops.Hash_exact (Thelpers.colset [ "A" ])) []
  in
  let plain = Sopt.Extreq.plain intern Reqprops.none in
  let enforced =
    Sopt.Extreq.make intern Reqprops.none
      (Sopt.Intern.of_list intern [ (3, pinned) ])
  in
  Alcotest.(check bool) "same conventional requirement id" true
    (plain.Sopt.Extreq.rid = enforced.Sopt.Extreq.rid);
  Alcotest.(check bool) "enforcement map is part of the identity" true
    (ids plain <> ids enforced)

(* The interner belongs to one optimizer run: a second identical run in the
   same process interns, searches and counts exactly like the first. *)
let test_runs_count_alike () =
  let deltas () =
    let r = ls_report "LS1" in
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"intern." name
        || String.starts_with ~prefix:"optimizer." name)
      r.Cse.Pipeline.counters
  in
  let first = deltas () in
  Alcotest.(check bool) "intern counted" true
    (List.mem_assoc "intern.misses" first);
  Alcotest.(check (list (pair string int))) "identical counter deltas" first
    (deltas ())

let test_consumer_sweep_monotone () =
  let reductions =
    List.map
      (fun k ->
        let catalog = Relalg.Catalog.default () in
        let r =
          Cse.Pipeline.run ~catalog (Sworkload.Sweeps.consumers_script ~k)
        in
        Cse.Pipeline.reduction_percent r)
      [ 1; 2; 3; 4 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "more consumers, more saving" true
    (increasing reductions);
  Alcotest.(check (float 0.01)) "k=1 has nothing to share" 0.0
    (List.hd reductions)

let () =
  Alcotest.run "invariants"
    [
      ( "rounds",
        [
          prop_round_count;
          prop_rounds_complete;
          prop_rounds_distinct;
          prop_sequential_le_naive;
        ] );
      ("history", [ prop_expansion_count; prop_expansion_sound ]);
      ("expressions", [ prop_rename_commutes; prop_columns_rename ]);
      ( "cost model",
        [
          Alcotest.test_case "skew parallelism" `Quick test_skew_model;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
      ( "cached costing",
        [
          Alcotest.test_case "builtins: cached = walked on every node" `Quick
            test_cached_cost_builtins;
          Alcotest.test_case "random scripts: cached = walked, bound = closure"
            `Slow test_cached_cost_random;
          Alcotest.test_case "printed costs within the plan's cost" `Slow
            test_printed_costs;
        ] );
      ( "interning",
        [
          Alcotest.test_case "distinct ids, stable re-intern" `Quick
            test_intern_ids;
          Alcotest.test_case "enforcement maps keep ids apart" `Quick
            test_intern_enforcement_distinct;
          prop_intern_last_entry;
          Alcotest.test_case "two LS1 runs count alike" `Slow
            test_runs_count_alike;
          Alcotest.test_case "report surfaces counter deltas" `Quick
            test_report_counters;
          Alcotest.test_case "S1 counters pinned" `Quick
            test_report_counters_pinned;
        ] );
      ( "large scripts",
        [
          Alcotest.test_case "LS1 plans" `Slow test_ls1_plan_valid;
          Alcotest.test_case "LS1 LCAs" `Slow test_ls1_every_lca_found;
          Alcotest.test_case "consumer sweep" `Slow test_consumer_sweep_monotone;
        ] );
    ]
