(* Benchmark harness regenerating every table of the paper's evaluation
   (Section IX), the Section VIII round counts and ablations, sweeps beyond
   the paper, and simulated-execution counters.

   One record pass: each registry workload is optimized unbudgeted three
   times (pass walls the min of the three), audited once with the deep
   static-analysis suite, and its CSE plan executed.  The figure mode
   renders tables from the records and from the ablation and sweep runs;
   [--json PATH] writes the records as the optimizer-perf baseline
   (BENCH_opt.json) instead.  Every table prints as a markdown block
   between <!-- bench:ID --> and <!-- /bench:ID --> markers, which
   EXPERIMENTS.md embeds verbatim.  Host blocks hold wall times; their
   opening marker says "host", and CI compares only the other blocks.

   Run with:  dune exec bench/main.exe [-- --workers N] [--no-prune]
              dune exec bench/main.exe -- --json PATH [--quick]
   [--quick] keeps the workloads without a Section IX budget (S1-S4,
   IND).  Serve throughput is measured by perfbench/. *)

module Builtin = Sworkload.Builtin

(* --- tables -------------------------------------------------------------- *)

type cell =
  | Int of int
  | Num of float  (* costs: 5 significant digits *)
  | Ratio of float
  | Pct of float
  | Wall of float  (* seconds, printed in ms *)
  | Str of string

(* Header cells name the report or JSON field each column prints. *)
type table = { id : string; host : bool; header : string list; rows : cell list list }

let table ?(host = false) id header rows = { id; host; header; rows }

let cell = function
  | Int i -> string_of_int i
  | Num f -> Printf.sprintf "%.5g" f
  | Ratio f -> Printf.sprintf "%.3f" f
  | Pct f -> Printf.sprintf "%.1f" f
  | Wall s -> Printf.sprintf "%.2f ms" (1000.0 *. s)
  | Str s -> s

let render t =
  let line cells = "| " ^ String.concat " | " cells ^ " |" in
  Fmt.pr "<!-- bench:%s%s -->@.@." t.id (if t.host then " host" else "");
  if t.host then
    Fmt.pr "Host figures: wall times on a %d-core host.@.@."
      (Domain.recommended_domain_count ());
  Fmt.pr "%s@.%s@." (line t.header) (line (List.map (fun _ -> "---") t.header));
  List.iter (fun row -> Fmt.pr "%s@." (line (List.map cell row))) t.rows;
  Fmt.pr "@.<!-- /bench:%s -->@.@." t.id

(* --- records -------------------------------------------------------------- *)

(* Every pipeline run in this harness is audited: the full static-analysis
   suite over the memo, sharing structure, logical DAG and all three
   plans, failing loudly if anything does not reproduce. *)
let run ?config ?budget ?(cluster = Scost.Cluster.default)
    ?(catalog = Relalg.Catalog.default ()) script =
  let r = Cse.Pipeline.run ?config ?budget ~cluster ~catalog script in
  Sanalysis.Audit.assert_clean ~cluster ~catalog r;
  r

(* Measured execution wall times of the CSE plan at one worker and at
   [workers] domains, plus the modeled makespan: the workers=1 run's
   per-stage durations replayed through the scheduler's own fault-free
   wave schedule with greedy placement on N slots.  On a host with fewer
   cores than the pool has domains the measured parallel wall time
   cannot improve, so the model is the honest projection of the wave
   schedule's speedup. *)
type exec_times = {
  e_stages : int;
  e_width : int;  (* max stages per depth level: available parallelism *)
  e_wall1 : float;  (* measured, workers = 1, min of 3 reps *)
  e_walln : float;  (* measured, workers = n, min of 3 reps *)
  e_model1 : float;  (* modeled makespan on 1 slot = sum of stage times *)
  e_modeln : float;  (* modeled makespan on n slots *)
}

(* Also fills the report's [exec] summary (the best workers=n rep), which
   the JSON record reads. *)
let exec_times ~workers (w : Builtin.t) (r : Cse.Pipeline.report) =
  let graph = Sexec.Stage.build r.cse_plan in
  let measure wk =
    (* One engine reused across the reps: the extract cache warms on the
       first rep, so min-of-3 measures the steady state a long-running
       engine (serve mode) sees rather than paying datagen every rep. *)
    let engine = Sexec.Engine.create ~workers:wk ~machines:25 (w.catalog ()) in
    let best = ref None in
    Gc.compact ();
    for _ = 1 to 3 do
      ignore (Sexec.Engine.run engine r.cse_plan);
      let e = Sserve.Engine.exec_summary engine in
      match !best with
      | Some (b, _) when b.Cse.Pipeline.wall_s <= e.wall_s -> ()
      | _ -> best := Some (e, engine.last_seconds)
    done;
    Option.get !best
  in
  let e1, seconds = measure 1 in
  let en, _ = measure workers in
  r.exec <- Some en;
  {
    e_stages = Sexec.Stage.size graph;
    e_width = Sexec.Stage.width graph;
    e_wall1 = e1.wall_s;
    e_walln = en.wall_s;
    e_model1 = Sexec.Scheduler.modeled_makespan ~workers:1 ~seconds graph;
    e_modeln = Sexec.Scheduler.modeled_makespan ~workers ~seconds graph;
  }

(* One record per registry workload, read by both modes. *)
type record = {
  w : Builtin.t;
  report : Cse.Pipeline.report;  (* unbudgeted; pass walls min of 3 *)
  lint_deep_ms : float;  (* the deep audit of [report] *)
  exec : exec_times;
}

(* Counters and memo figures come from the first run; every run interns
   its requirements in its own optimizer's table, so any run would report
   the same counts.  Budgets are dropped so that no wall-time cap can
   saturate a figure. *)
let record ~workers ~config (w : Builtin.t) =
  let opt () = Cse.Pipeline.run ~config ~catalog:(w.catalog ()) w.script in
  let first = opt () in
  let rest = [ opt (); opt () ] in
  let best f = List.fold_left (fun m r -> Float.min m (f r)) (f first) rest in
  let report =
    {
      first with
      conventional_time = best (fun r -> r.Cse.Pipeline.conventional_time);
      cse_time = best (fun r -> r.Cse.Pipeline.cse_time);
    }
  in
  let t0 = Unix.gettimeofday () in
  Sanalysis.Audit.assert_clean ~cluster:Scost.Cluster.default
    ~catalog:(w.catalog ()) report;
  let lint_deep_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  { w; report; lint_deep_ms; exec = exec_times ~workers w report }

(* --- figures from the records ------------------------------------------- *)

(* One row per record: its name, then [cells] of its report. *)
let per_workload ?host id header cells records =
  table ?host id ("name" :: header)
    (List.map (fun o -> Str o.w.name :: cells o.report) records)

let ints l = Str (String.concat "," (List.map string_of_int l))

let fig6 =
  per_workload "fig6" [ "operators"; "shared_groups"; "consumers per shared group" ]
    (fun r ->
      [
        Int (Slogical.Dag.size r.dag);
        Int (List.length r.shared);
        ints (List.map (fun (s : Cse.Spool.shared) -> s.initial_consumers) r.shared);
      ])

(* Scripts with at most four shared groups: one row per group. *)
let fig3 records =
  table "fig3" [ "name"; "spool group"; "over group"; "consumers"; "lca" ]
    (List.concat_map
       (fun o ->
         let r = o.report in
         if List.length r.shared > 4 then []
         else
           List.map
             (fun (s : Cse.Spool.shared) ->
               let lca =
                 match Cse.Shared_info.lca_of_shared r.shared_info s.spool with
                 | Some l when l = r.memo.root -> string_of_int l ^ " (root)"
                 | Some l -> string_of_int l
                 | None -> "-"
               in
               [
                 Str o.w.name;
                 Int s.spool;
                 Int s.under;
                 ints (Cse.Shared_info.consumers r.shared_info s.spool);
                 Str lca;
               ])
             r.shared)
       records)

(* paper-reported cost reductions (Figure 7), for side-by-side comparison *)
let paper_reduction =
  [ ("S1", 38.0); ("S2", 55.0); ("S3", 45.0); ("S4", 57.0); ("LS1", 21.0); ("LS2", 45.0) ]

let fig7 records =
  table "fig7"
    [
      "name"; "conventional_cost"; "cse_cost"; "cost_ratio"; "reduction_percent";
      "paper reduction_percent";
    ]
    (List.map
       (fun o ->
         let r = o.report in
         [
           Str o.w.name;
           Num r.conventional_cost;
           Num r.cse_cost;
           Ratio (Cse.Pipeline.ratio r);
           Pct (Cse.Pipeline.reduction_percent r);
           Pct (Option.value ~default:nan (List.assoc_opt o.w.name paper_reduction));
         ])
       records)

(* Figure 8: the S1 plans' operators as executed.  A spool's subtree runs
   once, at its first reference. *)
let fig8 records =
  let row label plan cost =
    let spools = Sphys.Plan.Tbl.create 8 in
    let rec executed acc (n : Sphys.Plan.t) =
      match n.op with
      | P_spool when Sphys.Plan.Tbl.mem spools n -> acc
      | op ->
          if op = P_spool then Sphys.Plan.Tbl.add spools n ();
          List.fold_left executed (op :: acc) n.children
    in
    let ops = executed [] plan in
    let count p = Int (List.length (List.filter p ops)) in
    let exchanges =
      List.filter_map
        (function
          | Sphys.Physop.P_exchange { cols } | P_merge_exchange { cols } ->
              Some (Relalg.Colset.to_string cols)
          | _ -> None)
        ops
    in
    let spools, reads = Scost.Dagcost.spool_counts plan in
    [
      Str label;
      Num cost;
      count (function Sphys.Physop.P_extract _ -> true | _ -> false);
      Str (String.concat " " (List.sort compare exchanges));
      count (function Sphys.Physop.P_sort _ -> true | _ -> false);
      Int spools;
      Int reads;
    ]
  in
  let r = (List.find (fun o -> o.w.name = "S1") records).report in
  table "fig8"
    [ "S1 plan"; "cost"; "extracts"; "exchanges"; "sorts"; "spools"; "spool reads" ]
    [
      row "conventional (8(a))" r.conventional_plan r.conventional_cost;
      row "CSE (8(b))" r.cse_plan r.cse_cost;
    ]

let round_header =
  [ "rounds_executed"; "rounds_aborted_bound"; "rounds_sequential"; "rounds_naive" ]

let rounds (r : Cse.Pipeline.report) =
  [
    Int r.rounds_executed;
    Int r.rounds_aborted_bound;
    Int r.rounds_sequential;
    Int r.rounds_naive;
  ]

let fig4 =
  per_workload "fig4" (round_header @ [ "rounds_pruned"; "property sets" ])
    (fun r ->
      rounds r
      @ [
          Int r.rounds_pruned;
          Int (List.fold_left (fun acc (_, n) -> acc + n) 0 r.history_sizes);
        ])

(* IND with and without the VIII-A decomposition, and the paper's example
   of two groups with 8 property sets each. *)
let fig5 records =
  let ind = List.find (fun o -> o.w.name = "IND") records in
  let without =
    run ~config:{ Cse.Config.default with use_independent_groups = false }
      ~catalog:(ind.w.catalog ()) ind.w.script
  in
  let eight g = (g, List.init 8 (fun _ -> Sphys.Reqprops.none)) in
  table "fig5"
    (("configuration" :: round_header) @ [ "cse_cost" ])
    [
      (Str "IND, with VIII-A" :: rounds ind.report) @ [ Num ind.report.cse_cost ];
      (Str "IND, without VIII-A" :: rounds without) @ [ Num without.cse_cost ];
      [
        Str "paper: two groups of 8"; Str "-"; Str "-";
        Int (Cse.Rounds.sequential_total [ [ eight 5 ]; [ eight 6 ] ]);
        Int (Cse.Rounds.naive_total [ [ eight 5; eight 6 ] ]);
        Str "-";
      ];
    ]

(* Both plans on 25 machines, each verified against the reference
   evaluator. *)
let measured records =
  table "measured"
    [
      "name"; "rows_shuffled (conventional)"; "rows_shuffled (CSE)";
      "rows_extracted (conventional)"; "rows_extracted (CSE)"; "spool_executions";
      "spool_reads";
    ]
    (List.map
       (fun o ->
         let check plan =
           let v = Sexec.Validate.check ~machines:25 (o.w.catalog ()) o.report.dag plan in
           assert v.ok;
           v.engine.counters
         in
         let c = check o.report.conventional_plan and e = check o.report.cse_plan in
         [
           Str o.w.name;
           Int c.rows_shuffled;
           Int e.rows_shuffled;
           Int c.rows_extracted;
           Int e.rows_extracted;
           Int e.spool_executions;
           Int e.spool_reads;
         ])
       records)

(* Fault rate 0.3 over seeds 1-5, counts summed over the seeds; every
   faulty run is validated against the reference evaluator and
   byte-identical to the fault-free run. *)
let faults records =
  table "faults"
    [ "name"; "stages_run"; "retries"; "partitions_lost"; "recomputed_rows" ]
    (List.map
       (fun o ->
         let check ?faults () =
           let v =
             Sexec.Validate.check ?faults ~machines:25 (o.w.catalog ()) o.report.dag
               o.report.cse_plan
           in
           assert v.ok;
           v
         in
         let base = check () in
         let runs =
           List.map
             (fun seed ->
               let v = check ~faults:(Sexec.Faults.spec ~rate:0.3 seed) () in
               assert (Sexec.Validate.identical_outputs base.outputs v.outputs);
               v.engine.counters)
             [ 1; 2; 3; 4; 5 ]
         in
         let sum f = Int (List.fold_left (fun acc c -> acc + f c) 0 runs) in
         [
           Str o.w.name;
           Int base.engine.counters.stages_run;
           sum (fun c -> c.Sexec.Engine.retries);
           sum (fun c -> c.Sexec.Engine.partitions_lost);
           sum (fun c -> c.Sexec.Engine.recomputed_rows);
         ])
       records)

let exec_time ~workers records =
  table ~host:true "exec-time"
    [
      "name"; "stages"; "stage_width"; "exec_workers"; "exec_wall_w1_s"; "exec_wall_wN_s";
      "exec_modeled_w1_s"; "exec_modeled_wN_s"; "exec_modeled_speedup";
    ]
    (List.map
       (fun o ->
         let e = o.exec in
         [
           Str o.w.name; Int e.e_stages; Int e.e_width; Int workers; Wall e.e_wall1;
           Wall e.e_walln; Wall e.e_model1; Wall e.e_modeln;
           Ratio (e.e_model1 /. Float.max 1e-9 e.e_modeln);
         ])
       records)

(* Section IX's timing: the pipeline's own pass walls, min of 3 *)
let opt_time =
  per_workload ~host:true "opt-time" [ "conventional_time_s"; "cse_time_s" ] (fun r ->
      [ Wall r.conventional_time; Wall r.cse_time ])

(* --- ablations and sweeps ----------------------------------------------- *)

let ls2 = Option.get (Builtin.find "LS2")

(* Every configuration under one deterministic task cap: without VIII-A
   the round space is the full product, and the cap ends its enumeration. *)
let ablation () =
  let runs =
    List.map
      (fun (label, config) ->
        let budget = Sopt.Budget.create ~max_tasks:40_000 () in
        (label, run ~config ~budget ~catalog:(ls2.catalog ()) ls2.script))
      [
        ("all extensions", Cse.Config.default);
        ( "no independent groups (VIII-A)",
          { Cse.Config.default with use_independent_groups = false } );
        ( "no group ranking (VIII-B)",
          { Cse.Config.default with use_group_ranking = false } );
        ( "no property ranking (VIII-C)",
          { Cse.Config.default with use_property_ranking = false } );
        ("no extensions at all", Cse.Config.no_extensions);
      ]
  in
  [
    table "ablation"
      [
        "configuration"; "cse_cost"; "rounds_executed"; "rounds_aborted_bound";
        "budget_exhausted";
      ]
      (List.map
         (fun (label, (r : Cse.Pipeline.report)) ->
           [
             Str label;
             Num r.cse_cost;
             Int r.rounds_executed;
             Int r.rounds_aborted_bound;
             Str (string_of_bool r.budget_exhausted);
           ])
         runs);
    table ~host:true "ablation-time" [ "configuration"; "cse_time_s" ]
      (List.map
         (fun (label, (r : Cse.Pipeline.report)) -> [ Str label; Wall r.cse_time ])
         runs);
  ]

let ablation_budget () =
  table "ablation-budget"
    [ "max_tasks"; "cse_cost"; "rounds_executed"; "rounds_aborted_bound"; "cost_ratio" ]
    (List.map
       (fun cap ->
         let budget = Option.map (fun c -> Sopt.Budget.create ~max_tasks:c ()) cap in
         let r = run ?budget ~catalog:(ls2.catalog ()) ls2.script in
         [
           Option.fold ~none:(Str "none") ~some:(fun c -> Int c) cap;
           Num r.cse_cost;
           Int r.rounds_executed;
           Int r.rounds_aborted_bound;
           Ratio (Cse.Pipeline.ratio r);
         ])
       [ Some 500; Some 1_000; Some 2_000; Some 4_000; Some 6_000; None ])

(* S1 under both parallelism models; the last column is the local penalty,
   in effective parallelism, of partitioning the shared node on {B} (ndv
   1000) instead of {A,B,C} (ndv >> machines). *)
let ablation_skew () =
  let spool_part plan =
    Sphys.Plan.fold
      (fun acc (n : Sphys.Plan.t) ->
        if n.op = P_spool then Sphys.Partition.to_string n.props.part else acc)
      "-" plan
  in
  table "ablation-skew"
    [
      "skew_aware"; "spool partitioning"; "conventional_cost"; "cse_cost";
      "{B} vs {A,B,C} penalty (%)";
    ]
    (List.map
       (fun skew_aware ->
         let cluster = { Scost.Cluster.default with skew_aware } in
         let r = run ~cluster Sworkload.Paper_scripts.s1 in
         let machines = float_of_int cluster.machines in
         let parallelism = Scost.Costmodel.key_parallelism ~skew_aware ~machines in
         [
           Str (string_of_bool skew_aware);
           Str (spool_part r.cse_plan);
           Num r.conventional_cost;
           Num r.cse_cost;
           Pct (100.0 *. ((parallelism 3.6e6 /. parallelism 1000.0) -. 1.0));
         ])
       [ true; false ])

(* A parametric family: one pipeline run per parameter value. *)
let sweep id param values optimize =
  table id
    [ param; "conventional_cost"; "cse_cost"; "reduction_percent"; "rounds_executed" ]
    (List.map
       (fun v ->
         let (r : Cse.Pipeline.report) = optimize v in
         [
           Int v;
           Num r.conventional_cost;
           Num r.cse_cost;
           Pct (Cse.Pipeline.reduction_percent r);
           Int r.rounds_executed;
         ])
       values)

let sweeps () =
  [
    sweep "sweep-consumers" "consumers" [ 1; 2; 3; 4; 5; 6 ] (fun k ->
        run (Sworkload.Sweeps.consumers_script ~k));
    sweep "sweep-machines" "machines" [ 5; 10; 25; 50; 100; 200 ] (fun m ->
        run ~cluster:(Scost.Cluster.with_machines m Scost.Cluster.default)
          Sworkload.Paper_scripts.s1);
    sweep "sweep-depth" "depth" [ 1; 3; 6; 10 ] (fun depth ->
        run (Sworkload.Sweeps.chain_script ~depth));
  ]

(* --- machine-readable baseline (BENCH_opt.json) -------------------------- *)

(* One optimizer-perf record per workload (schema scopecse-bench-opt/2):
   the run report's optimization and counters sections, then the bench's
   own measurements: memo size, peak heap, the execution walls and
   modeled makespans, and the deep-lint time.  EXPERIMENTS.md maps the /1
   field names onto these. *)
let json_of_record (o : record) =
  let r = o.report in
  let num f = Sobs.Json.Num f in
  let int i = num (float_of_int i) in
  let e = Option.get r.exec in
  Sobs.Json.Obj
    ((("name", Sobs.Json.Str o.w.name) :: Sserve.Report.optimized r)
    @ [
        ("memo_groups", int (Smemo.Memo.size r.memo));
        ("memo_exprs", int (Smemo.Memo.expr_count r.memo));
        (* execution: measured wall at workers=1 and workers=N, the best
           workers=N rep's busy time and utilization, its batch figures
           (the batch count is a pure function of the plan, the data and
           the batch size), and the modeled wave-schedule makespans the
           speedup figure comes from *)
        ("stages", int o.exec.e_stages);
        ("stage_width", int o.exec.e_width);
        ("exec_workers", int e.workers);
        ("exec_wall_w1_s", num o.exec.e_wall1);
        ("exec_wall_wN_s", num o.exec.e_walln);
        ("exec_busy_wN_s", num (Array.fold_left ( +. ) 0.0 e.busy_s));
        ("exec_util_wN", num (Cse.Pipeline.utilization e));
        ("exec_batch_size", int e.batch_size);
        ("exec_batches", int e.batches);
        ("exec_modeled_w1_s", num o.exec.e_model1);
        ("exec_modeled_wN_s", num o.exec.e_modeln);
        ("exec_modeled_speedup", num (o.exec.e_model1 /. Float.max 1e-9 o.exec.e_modeln));
        ("lint.deep_ms", num o.lint_deep_ms);
      ])

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  (* --no-prune: run the phase-2 search exhaustively; paired with the
     default run, bench/compare --equivalence proves the pruning layers
     never change a chosen plan's cost *)
  let config =
    if List.mem "--no-prune" argv then Cse.Config.no_pruning Cse.Config.default
    else Cse.Config.default
  in
  let rec after flag = function
    | f :: v :: _ when f = flag && not (String.length v > 1 && v.[0] = '-') -> Some v
    | _ :: tl -> after flag tl
    | [] -> None
  in
  let workers =
    match Option.bind (after "--workers" argv) int_of_string_opt with
    | Some n when n >= 1 -> n
    | _ -> 4
  in
  let t0 = Unix.gettimeofday () in
  let records =
    List.map (record ~workers ~config)
      (List.filter
         (fun (w : Builtin.t) -> not (quick && w.budget_seconds <> None))
         Builtin.all)
  in
  if List.mem "--json" argv then begin
    let path = Option.value ~default:"BENCH_opt.json" (after "--json" argv) in
    Sobs.Flight.write_file path
      (Sobs.Json.to_string
         (Sobs.Json.Obj
            [
              ("schema", Sobs.Json.Str "scopecse-bench-opt/2");
              ("quick", Sobs.Json.Bool quick);
              ("workloads", Sobs.Json.Arr (List.map json_of_record records));
            ]));
    render (opt_time records);
    Fmt.pr "wrote %s@." path
  end
  else begin
    (* Figure 7's scripts; IND has its own figure (fig5), and the
       execution tables cover the scripts without a Section IX budget *)
    let paper = List.filter (fun o -> o.w.name <> "IND") records in
    let small = List.filter (fun o -> o.w.budget_seconds = None) paper in
    List.iter render
      ([ fig6 paper; fig3 paper; fig7 paper; fig8 paper; fig4 paper; fig5 records ]
      @ ablation ()
      @ [ ablation_budget (); ablation_skew () ]
      @ sweeps ()
      @ [ measured small; faults small; exec_time ~workers paper; opt_time paper ]);
    Fmt.pr "total bench time: %.1f s@." (Unix.gettimeofday () -. t0)
  end
