open Relalg

(* Simulated-cluster execution tests: operator semantics, exchange
   co-location, determinism, counters, and full plan validation against
   the reference evaluator. *)

let schema cols = List.map (fun c -> Schema.column c Schema.Tint) cols

let test_datagen_deterministic () =
  let catalog = Catalog.default () in
  let s = schema [ "A"; "B"; "C"; "D" ] in
  let t1 = Sexec.Datagen.table catalog ~file:"test.log" ~schema:s in
  let t2 = Sexec.Datagen.table catalog ~file:"test.log" ~schema:s in
  Alcotest.(check bool) "same rows" true (Table.same_contents t1 t2);
  Alcotest.(check int) "scaled to cap" 2000 (Table.cardinality t1)

let test_datagen_distinct_files_differ () =
  let catalog = Catalog.default () in
  let s = schema [ "A"; "B" ] in
  let t1 = Sexec.Datagen.table catalog ~file:"test.log" ~schema:s in
  let t2 = Sexec.Datagen.table catalog ~file:"test2.log" ~schema:s in
  Alcotest.(check bool) "different files differ" false (Table.same_contents t1 t2)

let test_datagen_aggregation_reduces () =
  let catalog = Catalog.default () in
  let s = schema [ "A"; "B" ] in
  let t = Sexec.Datagen.table catalog ~file:"test.log" ~schema:s in
  let g = Table.group_by t ~keys:[ "A" ] ~aggs:[] in
  Alcotest.(check bool) "grouping reduces rows" true
    (Table.cardinality g < Table.cardinality t)

(* --- exchange co-location ------------------------------------------------ *)

(* The counters and per-stage attempts of a validated run, read from the
   engine that ran it. *)
let counters_of (v : Sexec.Validate.outcome) = v.engine.Sexec.Engine.counters
let attempts_of (v : Sexec.Validate.outcome) = v.engine.Sexec.Engine.last_attempts

let dist_of_rows engine s rows =
  let machines = engine.Sexec.Engine.machines in
  let parts = Array.make machines [] in
  List.iteri (fun i r -> parts.(i mod machines) <- r :: parts.(i mod machines)) rows;
  Sexec.Engine.dist_of_parts s parts

let test_exchange_colocates_groups () =
  let catalog = Catalog.create () in
  let engine = Sexec.Engine.create ~machines:5 catalog in
  let s = schema [ "A"; "B" ] in
  let rows =
    List.init 200 (fun i -> [| Value.Int (i mod 7); Value.Int (i mod 3) |])
  in
  let d = dist_of_rows engine s rows in
  let ex = Sexec.Engine.exchange engine d (Colset.of_list [ "A" ]) in
  (* rows with equal A all land on one machine *)
  let homes = Hashtbl.create 8 in
  let seen = ref 0 in
  for m = 0 to 4 do
    List.iter
      (fun row ->
        incr seen;
        match Hashtbl.find_opt homes row.(0) with
        | Some m0 -> Alcotest.(check int) "co-located" m0 m
        | None -> Hashtbl.add homes row.(0) m)
      (Sexec.Engine.part_rows ex m)
  done;
  Alcotest.(check int) "rows preserved" 200 !seen;
  Alcotest.(check int) "shuffle counter" 200
    engine.Sexec.Engine.counters.Sexec.Engine.rows_shuffled

let test_exchange_order_insensitive_hash () =
  (* partitioning on {A,B} must co-locate with partitioning on the
     equality-linked pair regardless of column order: the per-row hash is
     commutative *)
  let catalog = Catalog.create () in
  let engine = Sexec.Engine.create ~machines:7 catalog in
  let s1 = schema [ "A"; "B" ] and s2 = schema [ "B"; "A" ] in
  let pairs = List.init 50 (fun i -> (i mod 11, i mod 4)) in
  let rows1 = List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) pairs in
  let rows2 = List.map (fun (a, b) -> [| Value.Int b; Value.Int a |]) pairs in
  let ex1 =
    Sexec.Engine.exchange engine (dist_of_rows engine s1 rows1)
      (Colset.of_list [ "A"; "B" ])
  in
  let ex2 =
    Sexec.Engine.exchange engine (dist_of_rows engine s2 rows2)
      (Colset.of_list [ "A"; "B" ])
  in
  (* the (a,b) row of ex1 and the (b,a) row of ex2 are on the same machine *)
  let machine_of (ex : Sexec.Engine.dist) v0 v1 =
    let found = ref (-1) in
    for m = 0 to 6 do
      if
        List.exists
          (fun r -> Value.equal r.(0) v0 && Value.equal r.(1) v1)
          (Sexec.Engine.part_rows ex m)
      then found := m
    done;
    !found
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) "aligned"
        (machine_of ex1 (Value.Int a) (Value.Int b))
        (machine_of ex2 (Value.Int b) (Value.Int a)))
    pairs

(* --- operators ------------------------------------------------------------ *)

let run_plan ?(machines = 5) catalog plan =
  let engine = Sexec.Engine.create ~machines catalog in
  (Sexec.Engine.run engine plan, engine)

let optimize ?(cse = true) script =
  let catalog = Thelpers.default_catalog () in
  let r = Cse.Pipeline.run ~catalog script in
  ( catalog,
    r.Cse.Pipeline.dag,
    (if cse then r.Cse.Pipeline.cse_plan else r.Cse.Pipeline.conventional_plan) )

let test_stream_agg_equals_reference () =
  (* already covered end-to-end; here a focused case with negative and
     repeated keys *)
  let s = schema [ "K"; "V" ] in
  let rows =
    [ (1, 5); (1, 7); (2, 1); (3, 2); (3, 3); (3, 4) ]
    |> List.map (fun (k, v) -> [| Value.Int k; Value.Int v |])
  in
  let sorted = List.sort (fun a b -> Value.compare a.(0) b.(0)) rows in
  let agg = Agg.make Agg.Sum (Expr.Col "V") "S" in
  let expected = Table.group_by (Table.make s rows) ~keys:[ "K" ] ~aggs:[ agg ] in
  let out =
    Sexec.Batch.stream_agg expected.Table.schema ~key_idx:[| 0 |]
      ~aggs:[| agg |]
      ~cargs:[| Expr.compile s agg.Agg.arg |]
      [ Sexec.Batch.of_rows s sorted ]
  in
  Alcotest.(check bool) "stream = hash reference" true
    (Table.same_contents expected
       (Table.make expected.Table.schema (Sexec.Batch.to_rows out)))

(* Key column flavours for the two [Batch.sort] paths: small-range ints
   (counting sort), and for the boxed comparator wide-range ints (span
   above the row count), ints that reach [min_int]/[max_int] (span
   overflow) and mixed [Null]/[Int]/[Float]/[Str]. *)
let gen_key_value =
  let open QCheck.Gen in
  let int lo hi = map (fun x -> Value.Int x) (int_range lo hi) in
  function
  | `Small -> int (-3) 4
  | `Wide -> int (-100_000) 100_000
  | `Extreme ->
      map
        (fun x -> Value.Int x)
        (oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ])
  | `Mixed ->
      oneof
        [
          return Value.Null;
          int (-2) 2;
          map (fun f -> Value.Float f) (oneofl [ -1.5; 0.0; 0.5; 2.0 ]);
          map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b" ]);
        ]

(* Lexicographic, direction-adjusted order on key tuples — the order
   [Batch.sort] must reproduce stably. *)
let cmp_keys keys a b =
  let rec go = function
    | [] -> 0
    | (c, dir) :: rest ->
        let r =
          match dir with
          | Sphys.Sortorder.Asc -> Value.compare a.(c) b.(c)
          | Sphys.Sortorder.Desc -> Value.compare b.(c) a.(c)
        in
        if r <> 0 then r else go rest
  in
  go keys

(* A batch of up to 300 rows: key columns [0, nk) in a random key order
   and direction, then a row-id column that makes any instability
   visible.  Optionally pre-sorted, optionally behind a selection
   vector. *)
let gen_sort_case =
  let open QCheck.Gen in
  let* nk = int_range 1 3 in
  let* kinds = list_repeat nk (oneofl [ `Small; `Wide; `Extreme; `Mixed ]) in
  let* dirs = list_repeat nk (oneofl Sphys.Sortorder.[ Asc; Desc ]) in
  let* cols = shuffle_l (List.init nk Fun.id) in
  let keys = List.combine cols dirs in
  let kinds = Array.of_list kinds in
  let* n = int_range 0 300 in
  let* rows =
    list_repeat n (flatten_l (List.init nk (fun c -> gen_key_value kinds.(c))))
  in
  let* presorted = frequency [ (1, return true); (3, return false) ] in
  let rows = List.map Array.of_list rows in
  let rows = if presorted then List.stable_sort (cmp_keys keys) rows else rows in
  let rows = List.mapi (fun i r -> Array.append r [| Value.Int i |]) rows in
  let* mask = option (list_repeat n bool) in
  let sel =
    Option.map
      (fun m ->
        Array.of_list
          (List.filter_map Fun.id
             (List.mapi (fun i live -> if live then Some i else None) m)))
      mask
  in
  return (keys, rows, sel)

let print_sort_case (keys, rows, sel) =
  let dir = function Sphys.Sortorder.Asc -> "asc" | Sphys.Sortorder.Desc -> "desc" in
  Fmt.str "keys=%a sel=%a@.%a"
    Fmt.(Dump.list (pair ~sep:(any ":") int (using dir string)))
    keys
    Fmt.(Dump.option (Dump.array int))
    sel
    Fmt.(list ~sep:cut (Dump.array Value.pp))
    rows

let prop_sort_matches_stable_sort =
  Thelpers.qtest ~count:500 "sort = List.stable_sort"
    (QCheck.make ~print:print_sort_case gen_sort_case)
    (fun (keys, rows, sel) ->
      let s = schema (List.init (List.length keys + 1) (Printf.sprintf "C%d")) in
      let b = { (Sexec.Batch.of_rows s rows) with Sexec.Batch.sel } in
      let expected = List.stable_sort (cmp_keys keys) (Sexec.Batch.to_rows b) in
      let actual = Sexec.Batch.to_rows (Sexec.Batch.sort keys b) in
      List.equal (Array.for_all2 Value.equal) expected actual)

(* --- the selection contract: live order, not necessarily ascending ------- *)

(* Four columns of mixed flavour: a small non-null int, a mixed
   [Null]/[Int]/[Float]/[Str] column, a wide int and a row id. *)
let sel_schema = schema [ "K"; "M"; "W"; "ID" ]

(* A batch of up to 300 rows, optionally behind an ascending selection,
   and the sort keys that will permute it. *)
let gen_sel_case =
  let open QCheck.Gen in
  let* n = int_range 0 300 in
  let* rows =
    list_repeat n
      (flatten_l [ gen_key_value `Small; gen_key_value `Mixed; gen_key_value `Wide ])
  in
  let rows = List.mapi (fun i r -> Array.of_list (r @ [ Value.Int i ])) rows in
  let* mask = option (list_repeat n bool) in
  let sel =
    Option.map
      (fun m ->
        Array.of_list
          (List.filter_map Fun.id
             (List.mapi (fun i live -> if live then Some i else None) m)))
      mask
  in
  let* nk = int_range 1 2 in
  let* cols = shuffle_l [ 0; 1; 2 ] in
  let* dirs = list_repeat nk (oneofl Sphys.Sortorder.[ Asc; Desc ]) in
  return (List.combine (List.filteri (fun i _ -> i < nk) cols) dirs, rows, sel)

(* Predicates and computed items over [sel_schema]: comparisons and
   connectives in both truth and value context, and a bare mixed column
   in truth context. *)
let sel_preds =
  Expr.
    [
      Cmp (Gt, Col "K", Lit (Value.Int 0));
      And (Cmp (Le, Col "K", Lit (Value.Int 2)), Not (Cmp (Eq, Col "M", Lit (Value.Str "a"))));
      Or (Cmp (Lt, Col "W", Lit (Value.Int 0)), Col "M");
      Not (Cmp (Ge, Binop (Add, Col "K", Col "ID"), Lit (Value.Int 100)));
    ]

let sel_computed =
  Expr.
    [
      Col "ID";
      Binop (Mul, Col "K", Lit (Value.Int 2));
      Cmp (Ne, Col "M", Col "K");
      And (Col "K", Col "M");
      Or (Col "M", Col "W");
      Not (Col "M");
      Col "M";
    ]

let prop_selection_kernels_match_dense =
  Thelpers.qtest ~count:300 "permuted selection = dense"
    (QCheck.make ~print:print_sort_case gen_sel_case)
    (fun (keys, rows, sel) ->
      let open Sexec.Batch in
      let s = sel_schema in
      let b = sort keys { (of_rows s rows) with sel } in
      let d = concat s [ b ] in
      let same what x y =
        if x <> y then QCheck.Test.fail_reportf "%s differs from the dense run" what
      in
      same "to_rows" (to_rows b) (to_rows d);
      List.iter
        (fun e ->
          let c = Expr.compile s e in
          same "filter" (to_rows (filter c b)) (to_rows (filter c d)))
        sel_preds;
      let project_both what items =
        let ces = Array.of_list (List.map (Expr.compile s) items) in
        let s' = schema (List.mapi (fun i _ -> Printf.sprintf "P%d" i) items) in
        same what (to_rows (project s' ces b)) (to_rows (project s' ces d))
      in
      project_both "bare project" Expr.[ Col "ID"; Col "M"; Col "K" ];
      project_both "computed project" sel_computed;
      List.iter
        (fun size ->
          let chunks = List.map to_rows (split ~size b) in
          same
            (Printf.sprintf "split %d" size)
            chunks
            (List.map to_rows (split ~size d));
          (* and the chunks are the input's rows, at most [size] each *)
          if
            List.concat chunks <> to_rows b
            || List.exists (fun c -> List.length c > size) chunks
          then QCheck.Test.fail_reportf "split %d reframes the rows wrongly" size)
        [ 1; 7; 4096 ];
      let aggs =
        Agg.
          [|
            make Sum (Expr.Col "K") "S";
            make Count (Expr.Col "M") "N";
            make Min (Expr.Col "M") "MN";
            make Max (Expr.Col "W") "MX";
          |]
      in
      let cargs = Array.map (fun a -> Expr.compile s a.Agg.arg) aggs in
      let out = schema [ "K"; "S"; "N"; "MN"; "MX" ] in
      let agg x = to_rows (stream_agg out ~key_idx:[| 0 |] ~aggs ~cargs [ x ]) in
      same "stream_agg" (agg b) (agg d);
      let routed x =
        Array.map
          (fun sel -> to_rows (gather s [ (x, sel) ]))
          (scatter_sel ~machines:5 [| 0; 1 |] x)
      in
      same "scatter_sel + gather" (Array.to_list (routed b)) (Array.to_list (routed d));
      same "concat" (to_rows (concat s [ b; b ])) (to_rows (concat s [ d; d ]));
      true)

(* A projection of bare columns moves no data: the output holds the
   input's column arrays and its selection. *)
let test_bare_project_shares_columns () =
  let s = sel_schema in
  let rows =
    List.init 20 (fun i ->
        [| Value.Int (i mod 3); Value.Str "x"; Value.Int (-i); Value.Int i |])
  in
  let open Sexec.Batch in
  let b = sort [ (0, Sphys.Sortorder.Desc) ] (of_rows s rows) in
  let p = project (schema [ "ID"; "K" ]) [| Expr.CCol 3; Expr.CCol 0 |] b in
  Alcotest.(check bool) "ID column shared" true (p.cols.(0) == b.cols.(3));
  Alcotest.(check bool) "K column shared" true (p.cols.(1) == b.cols.(0));
  Alcotest.(check bool) "permuted input" true (Option.is_some b.sel);
  Alcotest.(check bool) "selection shared" true
    (Option.get p.sel == Option.get b.sel);
  Alcotest.(check int) "live rows" 20 (live p)

let test_full_validation_both_plans () =
  List.iter
    (fun (name, script) ->
      List.iter
        (fun cse ->
          let catalog, dag, plan = optimize ~cse script in
          let v = Sexec.Validate.check ~machines:6 catalog dag plan in
          if not v.Sexec.Validate.ok then
            Alcotest.failf "%s (cse=%b): %s" name cse
              (String.concat "; " v.Sexec.Validate.mismatches))
        [ true; false ])
    Thelpers.small_builtins

(* A plan that writes one output in ascending order, checked against a
   DAG that expects a second output and the first one descending: both
   mismatches are reported, neither hides the other. *)
let test_validate_keeps_every_mismatch () =
  let script =
    {|R0 = EXTRACT A,B FROM "...\test.log" USING LogExtractor;
R = SELECT A,Sum(B) AS S FROM R0 GROUP BY A;
OUTPUT R TO "o" ORDER BY A|}
  in
  let catalog, _, plan = optimize (script ^ ";") in
  let dag = Thelpers.bind (script ^ {| DESC;
OUTPUT R TO "p";|}) in
  let v = Sexec.Validate.check ~machines:6 catalog dag plan in
  Alcotest.(check (list string))
    "both mismatches"
    [ "expected 2 outputs, plan produced 1"; "output o violates its ORDER BY" ]
    v.Sexec.Validate.mismatches

let test_spool_executed_once () =
  let catalog, dag, plan = optimize Sworkload.Paper_scripts.s1 in
  let v = Sexec.Validate.check ~machines:6 catalog dag plan in
  Alcotest.(check int) "one execution" 1
    (counters_of v).Sexec.Engine.spool_executions;
  Alcotest.(check int) "two reads" 2
    (counters_of v).Sexec.Engine.spool_reads

let test_cse_extracts_less () =
  let catalog, dag, cse_plan = optimize Sworkload.Paper_scripts.s1 in
  let _, _, conv_plan = optimize ~cse:false Sworkload.Paper_scripts.s1 in
  let vc = Sexec.Validate.check ~machines:6 catalog dag cse_plan in
  let vv = Sexec.Validate.check ~machines:6 catalog dag conv_plan in
  Alcotest.(check bool) "fewer rows extracted" true
    ((counters_of vc).Sexec.Engine.rows_extracted
    < (counters_of vv).Sexec.Engine.rows_extracted);
  Alcotest.(check bool) "fewer rows shuffled" true
    ((counters_of vc).Sexec.Engine.rows_shuffled
    <= (counters_of vv).Sexec.Engine.rows_shuffled)

let test_machine_count_invariance () =
  (* results are identical whatever the cluster size *)
  let catalog, dag, plan = optimize Sworkload.Paper_scripts.s2 in
  List.iter
    (fun machines ->
      let v = Sexec.Validate.check ~machines catalog dag plan in
      if not v.Sexec.Validate.ok then
        Alcotest.failf "mismatch on %d machines: %s" machines
          (String.concat "; " v.Sexec.Validate.mismatches))
    [ 1; 2; 3; 25; 64 ]

let test_reference_spools_transparent () =
  let catalog = Thelpers.default_catalog () in
  let dag = Thelpers.bind Sworkload.Paper_scripts.s1 in
  let outputs = Sexec.Reference.run catalog dag in
  Alcotest.(check int) "two outputs" 2 (List.length outputs);
  Alcotest.(check (list string)) "files"
    [ "result1.out"; "result2.out" ]
    (List.map fst outputs)

let test_outputs_in_script_order () =
  let catalog, _, plan = optimize Sworkload.Paper_scripts.s2 in
  let outputs, _ = run_plan catalog plan in
  Alcotest.(check (list string)) "order"
    [ "result1.out"; "result2.out"; "result3.out" ]
    (List.map fst outputs)

let test_run_twice_same_result () =
  let catalog, _, plan = optimize Sworkload.Paper_scripts.s1 in
  let o1, _ = run_plan catalog plan in
  let o2, _ = run_plan catalog plan in
  List.iter2
    (fun (f1, t1) (f2, t2) ->
      Alcotest.(check string) "file" f1 f2;
      Alcotest.(check bool) "rows" true (Table.same_contents t1 t2))
    o1 o2

(* A long-lived engine (the serve executor) sees the catalog version
   advance after every batch; its extract cache must keep the current
   version only, and the outputs must stay correct. *)
let test_extract_cache_evicts_old_versions () =
  let catalog, dag, plan = optimize Sworkload.Paper_scripts.s2 in
  let engine = Sexec.Engine.create ~machines:5 catalog in
  ignore (Sexec.Engine.run engine plan);
  for _ = 1 to 5 do
    Catalog.bump_version catalog;
    let outputs = Sexec.Engine.run engine plan in
    let current = Catalog.version catalog in
    let versions =
      Hashtbl.fold
        (fun (v, _, _) _ acc -> v :: acc)
        engine.Sexec.Engine.extract_cache []
    in
    Alcotest.(check bool) "extracts cached" true (versions <> []);
    List.iter
      (fun v -> Alcotest.(check int) "cached version is current" current v)
      versions;
    List.iter2
      (fun (f1, t1) (f2, t2) ->
        Alcotest.(check string) "file" f1 f2;
        Alcotest.(check bool) (f1 ^ " matches the reference") true
          (Table.same_contents t1 t2))
      (Sexec.Reference.run catalog dag)
      outputs
  done

(* --- staged execution and fault injection -------------------------------- *)

let test_stage_graph_shape () =
  let _, _, plan = optimize Sworkload.Paper_scripts.s1 in
  let g = Sexec.Stage.build plan in
  Alcotest.(check bool) "several stages" true (Sexec.Stage.size g > 1);
  Alcotest.(check int) "sink is last" (Sexec.Stage.size g - 1) g.Sexec.Stage.sink;
  (* S1's two consumers read the same spool: one producing stage, two
     dependency edges *)
  let sink = g.Sexec.Stage.stages.(g.Sexec.Stage.sink) in
  (match sink.Sexec.Stage.deps with
  | [ (b1, s1); (b2, s2) ] ->
      Alcotest.(check bool) "same spool node" true (b1 == b2);
      Alcotest.(check int) "same producing stage" s1 s2
  | deps -> Alcotest.failf "expected 2 sink dependencies, got %d" (List.length deps));
  (* every dependency precedes its consumer *)
  Array.iter
    (fun (st : Sexec.Stage.stage) ->
      List.iter
        (fun (_, dep) ->
          Alcotest.(check bool) "topological" true (dep < st.Sexec.Stage.id))
        st.Sexec.Stage.deps)
    g.Sexec.Stage.stages

let test_engine_reuse_resets () =
  (* regression: a reused engine once served stale spool results and
     accumulated counters across runs.  Under faults every counter is
     nonzero, recovery figures included, so each reset is observable. *)
  let catalog, _, plan = optimize Sworkload.Paper_scripts.s1 in
  let engine =
    Sexec.Engine.create ~faults:(Sexec.Faults.spec ~rate:0.3 1) ~machines:6
      catalog
  in
  let named () = Sexec.Engine.named_counters engine.Sexec.Engine.counters in
  let o1 = Sexec.Engine.run engine plan in
  let c1 = engine.Sexec.Engine.counters in
  let n1 = named () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted") true (List.assoc name n1 > 0))
    [ "exec.retries"; "exec.partitions_lost"; "exec.recomputed_rows" ];
  let o2 = Sexec.Engine.run engine plan in
  Alcotest.(check (list (pair string int))) "every counter reset" n1 (named ());
  Alcotest.(check bool) "a fresh record per run" true
    (c1 != engine.Sexec.Engine.counters);
  Alcotest.(check (list (pair string int)))
    "run 1's record still reads run 1" n1
    (Sexec.Engine.named_counters c1);
  Alcotest.(check int) "outputs not accumulated" (List.length o1) (List.length o2);
  Alcotest.(check bool) "outputs identical" true
    (Sexec.Validate.identical_outputs o1 o2)

(* Fault-injected runs over [seeds] must validate against the reference
   and stay byte-identical to the fault-free run; returns the retries
   observed, so callers can assert recovery actually happened. *)
let fault_roundtrip ?(rate = 0.3) ?max_attempts ~machines ~seeds catalog dag
    plan =
  let base = Sexec.Validate.check ~machines catalog dag plan in
  if not base.Sexec.Validate.ok then
    Alcotest.failf "fault-free run failed: %s"
      (String.concat "; " base.Sexec.Validate.mismatches);
  List.fold_left
    (fun retries seed ->
      let faults = Sexec.Faults.spec ~rate ?max_attempts seed in
      let v = Sexec.Validate.check ~faults ~machines catalog dag plan in
      if not v.Sexec.Validate.ok then
        Alcotest.failf "fault seed %d: %s" seed
          (String.concat "; " v.Sexec.Validate.mismatches);
      if
        not
          (Sexec.Validate.identical_outputs base.Sexec.Validate.outputs
             v.Sexec.Validate.outputs)
      then Alcotest.failf "fault seed %d: outputs diverge" seed;
      retries + (counters_of v).Sexec.Engine.retries)
    0 seeds

let test_faults_builtins () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let total =
    List.fold_left
      (fun acc (_, script) ->
        List.fold_left
          (fun acc cse ->
            let catalog, dag, plan = optimize ~cse script in
            acc + fault_roundtrip ~machines:6 ~seeds catalog dag plan)
          acc [ true; false ])
      0
      Thelpers.small_builtins
  in
  Alcotest.(check bool) "recoveries exercised" true (total > 0)

let test_faults_random_scripts () =
  let total = ref 0 in
  for seed = 1 to 50 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:6 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let r = Cse.Pipeline.run ~catalog script in
    total :=
      !total
      + fault_roundtrip ~rate:0.4 ~machines:5
          ~seeds:[ seed; seed + 1000 ]
          catalog r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan
  done;
  Alcotest.(check bool) "recoveries exercised" true (!total > 0)

let test_faults_large_scripts () =
  let total = ref 0 in
  List.iter
    (fun name ->
      let script, catalog = Thelpers.builtin name in
      let r = Cse.Pipeline.run ~catalog script in
      (* large stage graphs see many fault events over a run: a gentler
         rate and a deeper budget keep every loss recoverable *)
      total :=
        !total
        + fault_roundtrip ~rate:0.1 ~max_attempts:64 ~machines:9
            ~seeds:[ 1; 2 ] catalog r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan)
    [ "LS1"; "LS2" ];
  Alcotest.(check bool) "recoveries exercised" true (!total > 0)

let test_faults_deterministic () =
  (* the same seed and rate reproduce the same loss sequence exactly *)
  let catalog, dag, plan = optimize Sworkload.Paper_scripts.s1 in
  let faults = Sexec.Faults.spec ~rate:0.5 42 in
  let v1 = Sexec.Validate.check ~faults ~machines:6 catalog dag plan in
  let v2 = Sexec.Validate.check ~faults ~machines:6 catalog dag plan in
  Alcotest.(check int) "same retries"
    (counters_of v1).Sexec.Engine.retries
    (counters_of v2).Sexec.Engine.retries;
  Alcotest.(check (array int)) "same per-stage attempts"
    (attempts_of v1) (attempts_of v2);
  Alcotest.(check bool) "same outputs" true
    (Sexec.Validate.identical_outputs v1.Sexec.Validate.outputs
       v2.Sexec.Validate.outputs)

let test_faults_budget_exhaustion () =
  (* a rate close to 1 starves recovery: the attempt budget must bound the
     loop and raise instead of spinning *)
  let catalog, _, plan = optimize Sworkload.Paper_scripts.s1 in
  let faults = Sexec.Faults.spec ~rate:0.99 ~max_attempts:2 7 in
  let engine = Sexec.Engine.create ~faults ~machines:6 catalog in
  match Sexec.Engine.run engine plan with
  | _ -> Alcotest.fail "expected Recovery_exhausted"
  | exception Sexec.Scheduler.Recovery_exhausted { attempts; _ } ->
      Alcotest.(check bool) "budget respected" true (attempts > 2)

(* --- worker-count determinism --------------------------------------------- *)

(* The determinism contract: at any pool width the scheduler commits the
   same waves, draws the same faults and produces the same bytes.  Run
   the plan at workers = 1, 2 and 8 and require byte-identical outputs
   plus identical retry/loss accounting.  [~oversubscribe:true] defeats
   the engine's hardware-parallelism cap so the multi-domain paths are
   exercised even on a single-core host. *)
let worker_matrix ?faults ~machines catalog dag plan =
  let run workers =
    Sexec.Validate.check ?faults ~oversubscribe:true ~machines ~workers
      catalog dag plan
  in
  let base = run 1 in
  if not base.Sexec.Validate.ok then
    Alcotest.failf "workers=1: %s"
      (String.concat "; " base.Sexec.Validate.mismatches);
  List.iter
    (fun workers ->
      let v = run workers in
      if not v.Sexec.Validate.ok then
        Alcotest.failf "workers=%d: %s" workers
          (String.concat "; " v.Sexec.Validate.mismatches);
      if
        not
          (Sexec.Validate.identical_outputs base.Sexec.Validate.outputs
             v.Sexec.Validate.outputs)
      then Alcotest.failf "workers=%d: outputs diverge from sequential" workers;
      Alcotest.(check int)
        (Printf.sprintf "retries identical at workers=%d" workers)
        (counters_of base).Sexec.Engine.retries
        (counters_of v).Sexec.Engine.retries;
      Alcotest.(check int)
        (Printf.sprintf "partitions_lost identical at workers=%d" workers)
        (counters_of base).Sexec.Engine.partitions_lost
        (counters_of v).Sexec.Engine.partitions_lost;
      Alcotest.(check (array int))
        (Printf.sprintf "per-stage attempts identical at workers=%d" workers)
        (attempts_of base) (attempts_of v))
    [ 2; 8 ];
  (counters_of base).Sexec.Engine.retries

(* --- batch-size invariance ------------------------------------------------ *)

(* The framing contract of the columnar executor: batch size only chunks
   streams, it never reorders or regroups rows, so any batch size must
   reproduce the row engine's bytes exactly — and fault draws happen per
   stage completion, so the retry/loss schedule cannot shift either.
   Run the plan over the full batch-size × worker matrix and require
   byte-identical outputs plus identical per-stage attempts against a
   default-batch-size sequential baseline. *)
let batch_sizes = [ 1; 7; 64; 4096 ]

let batch_matrix ?faults ?(workers_list = [ 1; 2; 8 ]) ~machines catalog dag
    plan =
  let run ~workers ~batch_size =
    Sexec.Validate.check ?faults ~oversubscribe:true ~machines ~workers
      ~batch_size catalog dag plan
  in
  let base =
    run ~workers:1 ~batch_size:Sexec.Engine.default_batch_size
  in
  if not base.Sexec.Validate.ok then
    Alcotest.failf "baseline: %s"
      (String.concat "; " base.Sexec.Validate.mismatches);
  List.iter
    (fun batch_size ->
      List.iter
        (fun workers ->
          let v = run ~workers ~batch_size in
          if not v.Sexec.Validate.ok then
            Alcotest.failf "batch_size=%d workers=%d: %s" batch_size workers
              (String.concat "; " v.Sexec.Validate.mismatches);
          if
            not
              (Sexec.Validate.identical_outputs base.Sexec.Validate.outputs
                 v.Sexec.Validate.outputs)
          then
            Alcotest.failf
              "batch_size=%d workers=%d: outputs diverge from baseline"
              batch_size workers;
          Alcotest.(check (array int))
            (Printf.sprintf "attempts identical at batch_size=%d workers=%d"
               batch_size workers)
            (attempts_of base) (attempts_of v))
        workers_list)
    batch_sizes;
  (counters_of base).Sexec.Engine.retries

let test_batch_builtins () =
  List.iter
    (fun (_, script) ->
      List.iter
        (fun cse ->
          let catalog, dag, plan = optimize ~cse script in
          ignore (batch_matrix ~machines:6 catalog dag plan);
          ignore
            (batch_matrix
               ~faults:(Sexec.Faults.spec ~rate:0.3 23)
               ~machines:6 catalog dag plan))
        [ true; false ])
    Thelpers.small_builtins

let test_batch_random_scripts () =
  let retries = ref 0 in
  for seed = 1 to 25 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:6 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let r = Cse.Pipeline.run ~catalog script in
    let dag = r.Cse.Pipeline.dag and plan = r.Cse.Pipeline.cse_plan in
    ignore (batch_matrix ~machines:5 catalog dag plan);
    retries :=
      !retries
      + batch_matrix
          ~faults:(Sexec.Faults.spec ~rate:0.4 (seed + 4000))
          ~machines:5 catalog dag plan
  done;
  Alcotest.(check bool) "recoveries exercised across batch sizes" true
    (!retries > 0)

let test_batch_large_scripts () =
  let retries = ref 0 in
  List.iter
    (fun name ->
      let script, catalog = Thelpers.builtin name in
      let r = Cse.Pipeline.run ~catalog script in
      let dag = r.Cse.Pipeline.dag and plan = r.Cse.Pipeline.cse_plan in
      (* the large stage graphs dominate suite runtime: exercise every
         batch size but one worker width per size (2, the cheapest width
         that still runs the multi-domain paths) *)
      ignore (batch_matrix ~workers_list:[ 2 ] ~machines:9 catalog dag plan);
      retries :=
        !retries
        + batch_matrix ~workers_list:[ 2 ]
            ~faults:(Sexec.Faults.spec ~rate:0.1 ~max_attempts:64 5)
            ~machines:9 catalog dag plan)
    [ "LS1"; "LS2" ];
  Alcotest.(check bool) "recoveries exercised across batch sizes" true
    (!retries > 0)

let test_parallel_builtins () =
  List.iter
    (fun (_, script) ->
      List.iter
        (fun cse ->
          let catalog, dag, plan = optimize ~cse script in
          ignore (worker_matrix ~machines:6 catalog dag plan);
          ignore
            (worker_matrix
               ~faults:(Sexec.Faults.spec ~rate:0.3 11)
               ~machines:6 catalog dag plan))
        [ true; false ])
    Thelpers.small_builtins

let test_parallel_random_scripts () =
  let retries = ref 0 in
  for seed = 1 to 25 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:6 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let r = Cse.Pipeline.run ~catalog script in
    let dag = r.Cse.Pipeline.dag and plan = r.Cse.Pipeline.cse_plan in
    ignore (worker_matrix ~machines:5 catalog dag plan);
    retries :=
      !retries
      + worker_matrix
          ~faults:(Sexec.Faults.spec ~rate:0.4 (seed + 2000))
          ~machines:5 catalog dag plan
  done;
  Alcotest.(check bool) "recoveries exercised in parallel" true (!retries > 0)

let test_parallel_large_scripts () =
  let retries = ref 0 in
  List.iter
    (fun name ->
      let script, catalog = Thelpers.builtin name in
      let r = Cse.Pipeline.run ~catalog script in
      let dag = r.Cse.Pipeline.dag and plan = r.Cse.Pipeline.cse_plan in
      ignore (worker_matrix ~machines:9 catalog dag plan);
      retries :=
        !retries
        + worker_matrix
            ~faults:(Sexec.Faults.spec ~rate:0.1 ~max_attempts:64 3)
            ~machines:9 catalog dag plan)
    [ "LS1"; "LS2" ];
  Alcotest.(check bool) "recoveries exercised in parallel" true (!retries > 0)

(* --- kernel profiling ------------------------------------------------------ *)

let kernel_rows metrics =
  List.filter
    (fun (r : Sobs.Metrics.row) -> r.Sobs.Metrics.name = "exec.kernel_seconds")
    (Sobs.Metrics.snapshot metrics)

(* Profiling must be observation-only: enabling it changes no output
   byte and no fault/retry counter, and the profiled engine still obeys
   the whole worker-count determinism contract (the profiled column of
   the matrix). *)
let test_profile_invariance () =
  let catalog, dag, plan = optimize Sworkload.Paper_scripts.s2 in
  let run () =
    Sexec.Validate.check ~oversubscribe:true ~machines:6 ~workers:2 catalog
      dag plan
  in
  Sexec.Profile.set false;
  let off = run () in
  Alcotest.(check bool) "unprofiled run records no kernel rows" true
    (kernel_rows off.Sexec.Validate.engine.Sexec.Engine.metrics = []);
  Fun.protect
    ~finally:(fun () -> Sexec.Profile.set false)
    (fun () ->
      Sexec.Profile.set true;
      let on_ = run () in
      Alcotest.(check bool) "outputs byte-identical with profiling on" true
        (Sexec.Validate.identical_outputs off.Sexec.Validate.outputs
           on_.Sexec.Validate.outputs);
      Alcotest.(check (array int)) "per-stage attempts identical"
        (attempts_of off) (attempts_of on_);
      Alcotest.(check int) "retries identical"
        (counters_of off).Sexec.Engine.retries
        (counters_of on_).Sexec.Engine.retries;
      let rows = kernel_rows on_.Sexec.Validate.engine.Sexec.Engine.metrics in
      Alcotest.(check bool) "kernel histograms recorded" true (rows <> []);
      Alcotest.(check bool) "rows carry kernel and stage labels" true
        (List.for_all
           (fun (r : Sobs.Metrics.row) ->
             List.mem_assoc "kernel" r.Sobs.Metrics.labels
             && List.mem_assoc "stage" r.Sobs.Metrics.labels)
           rows);
      (* the profiled column of the determinism matrix, fault-free and
         fault-injected *)
      ignore (worker_matrix ~machines:6 catalog dag plan);
      ignore
        (worker_matrix
           ~faults:(Sexec.Faults.spec ~rate:0.3 11)
           ~machines:6 catalog dag plan))

let test_profile_disabled_zero_alloc () =
  Sexec.Profile.set false;
  let m = Sobs.Metrics.create () in
  (* warm up once so any one-time initialization is out of the way *)
  Sexec.Profile.note m ~kernel:"warm" ~stage:0 (Sexec.Profile.now ());
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t0 = Sexec.Profile.now () in
    Sexec.Profile.note m ~kernel:"hot" ~stage:1 t0;
    Sexec.Profile.note m ~kernel:"hotter" ~stage:2 t0
  done;
  let m1 = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocation-free (%.0f minor words)"
       (m1 -. m0))
    true
    (m1 -. m0 < 256.0);
  Alcotest.(check bool) "disabled path records nothing" true
    (Sobs.Metrics.snapshot m = [])

(* Each engine records into its own registry: with two engines in one
   process, each one's stage-time histogram counts exactly its own stage
   executions, and its kernel rows are exactly those a lone engine
   running the same plan records. *)
let test_engines_keep_own_metrics () =
  let catalog1, _, plan1 = optimize Sworkload.Paper_scripts.s1 in
  let catalog2, _, plan2 = optimize Sworkload.Paper_scripts.s2 in
  let stage_count (e : Sexec.Engine.t) =
    List.fold_left
      (fun acc (r : Sobs.Metrics.row) ->
        match r.Sobs.Metrics.value with
        | Sobs.Metrics.Dist s when r.Sobs.Metrics.name = "exec.stage_seconds" ->
            acc + s.Sobs.Hist.count
        | _ -> acc)
      0
      (Sobs.Metrics.snapshot e.Sexec.Engine.metrics)
  in
  let kernels (e : Sexec.Engine.t) =
    List.map
      (fun (r : Sobs.Metrics.row) ->
        ( r.Sobs.Metrics.labels,
          match r.Sobs.Metrics.value with
          | Sobs.Metrics.Dist s -> s.Sobs.Hist.count
          | _ -> -1 ))
      (kernel_rows e.Sexec.Engine.metrics)
  in
  Fun.protect
    ~finally:(fun () -> Sexec.Profile.set false)
    (fun () ->
      Sexec.Profile.set true;
      let run catalog plan =
        let e = Sexec.Engine.create ~machines:6 catalog in
        ignore (Sexec.Engine.run e plan);
        e
      in
      let e1 = run catalog1 plan1 in
      let e2 = run catalog2 plan2 in
      List.iter
        (fun (name, e) ->
          Alcotest.(check int)
            (name ^ ": stage_seconds counts its own stages")
            e.Sexec.Engine.counters.Sexec.Engine.stages_run (stage_count e))
        [ ("S1 engine", e1); ("S2 engine", e2) ];
      let alone = run catalog1 plan1 in
      Alcotest.(check bool) "kernel rows recorded" true (kernels e1 <> []);
      Alcotest.(check (list (pair (list (pair string string)) int)))
        "kernel rows are the engine's own" (kernels alone) (kernels e1))

let test_parallel_cross_script () =
  (* the serve batch path: two scripts sharing a scan chain are combined
     into one memo, so the shared extract+filter executes once behind a
     spool.  The combined plan obeys the same worker-count determinism
     contract as any single-script plan, and each script's slice of the
     combined outputs is byte-identical to running that script alone. *)
  let mk key out =
    Printf.sprintf
      "R = EXTRACT A,B,C,D FROM \"serve_log2\" USING LogExtractor;\n\
       F = SELECT A,B,C,D FROM R WHERE D > 7;\n\
       S = SELECT %s, Sum(D) AS V FROM F GROUP BY %s;\n\
       OUTPUT S TO \"%s\" ORDER BY %s;\n"
      key key out key
  in
  let a = mk "A" "cross_out" and b = mk "B" "cross_out" in
  let combined =
    Sserve.Normalize.(
      to_text (combine [ parse a; parse b ]))
  in
  let catalog = Sworkload.Session_gen.catalog () in
  let r = Cse.Pipeline.run ~catalog combined in
  let dag = r.Cse.Pipeline.dag and plan = r.Cse.Pipeline.cse_plan in
  ignore (worker_matrix ~machines:7 catalog dag plan);
  ignore
    (worker_matrix
       ~faults:(Sexec.Faults.spec ~rate:0.3 17)
       ~machines:7 catalog dag plan);
  let run_plan plan =
    Sexec.Engine.run (Sexec.Engine.create ~workers:2 ~machines:7 catalog) plan
  in
  (* identically-named outputs stay separate under the session tag *)
  let outs = run_plan plan in
  Alcotest.(check (list string))
    "tagged output per session"
    [ "_s0:cross_out"; "_s1:cross_out" ]
    (List.map fst outs);
  List.iteri
    (fun i script ->
      let solo = Cse.Pipeline.run ~catalog script in
      match (run_plan solo.Cse.Pipeline.cse_plan, List.nth outs i) with
      | [ (_, alone) ], (_, shared) ->
          Alcotest.(check string)
            (Printf.sprintf "script %d slice identical to solo run" i)
            (Thelpers.table_string alone)
            (Thelpers.table_string shared)
      | _ -> Alcotest.fail "expected exactly one solo output")
    [ a; b ]

let () =
  Alcotest.run "exec"
    [
      ( "datagen",
        [
          Alcotest.test_case "deterministic" `Quick test_datagen_deterministic;
          Alcotest.test_case "files differ" `Quick test_datagen_distinct_files_differ;
          Alcotest.test_case "aggregation reduces" `Quick test_datagen_aggregation_reduces;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "co-locates groups" `Quick test_exchange_colocates_groups;
          Alcotest.test_case "order-insensitive hash" `Quick
            test_exchange_order_insensitive_hash;
        ] );
      ( "operators",
        [
          Alcotest.test_case "stream aggregation" `Quick test_stream_agg_equals_reference;
          prop_sort_matches_stable_sort;
          prop_selection_kernels_match_dense;
          Alcotest.test_case "bare project shares columns" `Quick
            test_bare_project_shares_columns;
          Alcotest.test_case "reference evaluator" `Quick test_reference_spools_transparent;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "paper scripts, both plans" `Slow
            test_full_validation_both_plans;
          Alcotest.test_case "validate keeps every mismatch" `Quick
            test_validate_keeps_every_mismatch;
          Alcotest.test_case "spool executed once" `Quick test_spool_executed_once;
          Alcotest.test_case "CSE does less IO" `Quick test_cse_extracts_less;
          Alcotest.test_case "machine-count invariance" `Slow
            test_machine_count_invariance;
          Alcotest.test_case "output order" `Quick test_outputs_in_script_order;
          Alcotest.test_case "deterministic runs" `Quick test_run_twice_same_result;
          Alcotest.test_case "extract cache evicts old versions" `Quick
            test_extract_cache_evicts_old_versions;
        ] );
      ( "staged faults",
        [
          Alcotest.test_case "stage graph shape" `Quick test_stage_graph_shape;
          Alcotest.test_case "engine reuse resets" `Quick test_engine_reuse_resets;
          Alcotest.test_case "builtins under faults" `Slow test_faults_builtins;
          Alcotest.test_case "random scripts under faults" `Slow
            test_faults_random_scripts;
          Alcotest.test_case "large scripts under faults" `Slow
            test_faults_large_scripts;
          Alcotest.test_case "fault determinism" `Quick test_faults_deterministic;
          Alcotest.test_case "recovery budget" `Quick test_faults_budget_exhaustion;
        ] );
      ( "batch invariance",
        [
          Alcotest.test_case "builtins across batch sizes" `Slow
            test_batch_builtins;
          Alcotest.test_case "random scripts across batch sizes" `Slow
            test_batch_random_scripts;
          Alcotest.test_case "large scripts across batch sizes" `Slow
            test_batch_large_scripts;
        ] );
      ( "worker determinism",
        [
          Alcotest.test_case "builtins at workers 1/2/8" `Slow
            test_parallel_builtins;
          Alcotest.test_case "random scripts at workers 1/2/8" `Slow
            test_parallel_random_scripts;
          Alcotest.test_case "large scripts at workers 1/2/8" `Slow
            test_parallel_large_scripts;
          Alcotest.test_case "combined cross-script plan" `Quick
            test_parallel_cross_script;
        ] );
      ( "kernel profiling",
        [
          Alcotest.test_case "profiled column is byte-identical" `Quick
            test_profile_invariance;
          Alcotest.test_case "disabled path zero-alloc" `Quick
            test_profile_disabled_zero_alloc;
          Alcotest.test_case "engines keep their own metrics" `Quick
            test_engines_keep_own_metrics;
        ] );
    ]
