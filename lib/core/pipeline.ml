open Sphys

(* End-to-end facade: script text in, optimized plans out.

   Builds one memo, inserts spools (Algorithm 1), and runs one optimizer
   context over it in three passes ({!Phase2.optimize}):
   - *conventional* (phase 0): every spool is bypassed; a shared relation
     is optimized per consumer requirement and the final plan executes it
     once per consumer (Figure 8(a));
   - *CSE*: phase 1 with history recording, Algorithm 3, and the phase-2
     re-optimization (Figure 8(b)).
   The CSE plan is the cheapest of the three, so it never costs more than
   the conventional plan. *)

(* Plain execution-summary data: this module cannot depend on the
   executor (cse sits below sexec in the library order), so callers that
   run plans hand the figures over and share one output format. *)
type exec_summary = {
  workers : int;  (* executor domain-pool width *)
  batch_size : int;  (* executor batch granularity (max rows per batch) *)
  batches : int;  (* batches across the run's committed stage outputs *)
  wall_s : float;  (* execution wall-clock seconds *)
  busy_s : float array;  (* per-worker seconds spent executing *)
}

(* Fraction of the pool's total wall-time capacity spent inside tasks,
   in [0, 1]. *)
let utilization (e : exec_summary) =
  let busy_total = Array.fold_left ( +. ) 0.0 e.busy_s in
  if e.wall_s > 0.0 && Array.length e.busy_s > 0 then
    busy_total /. (e.wall_s *. float_of_int (Array.length e.busy_s))
  else 0.0

type report = {
  dag : Slogical.Dag.t;
  (* conventional optimization *)
  conventional_plan : Plan.t;
  conventional_cost : float;
  conventional_time : float;
  conventional_tasks : int;
  (* CSE optimization *)
  cse_plan : Plan.t;
  cse_cost : float;
  cse_time : float;
  cse_tasks : int;
  budget_exhausted : bool;
  phase1_plan : Plan.t;
  memo : Smemo.Memo.t;
  shared : Spool.shared list;
  lcas : (int * int) list; (* shared group -> LCA group *)
  rounds_executed : int;
  rounds_naive : int;
  rounds_sequential : int;
  rounds_pruned : int;
  (* sequential rounds removed by dominance filtering of candidates *)
  rounds_aborted_bound : int;
  (* rounds cut short by the branch-and-bound incumbent check *)
  phase2_winner_reuse_hits : int;
  (* winner-cache hits during phase 2 (cross-round reuse) *)
  history_sizes : (int * int) list; (* shared group -> #property sets *)
  candidate_props : (int * Sphys.Reqprops.t list) list;
  (* shared group -> phase-2 candidate property sets after dominance
     filtering, in round order *)
  pruned_props : (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list;
  (* shared group -> (dropped, kept dominator) pairs (SA060 audits them) *)
  shared_info : Shared_info.t;
  counters : (string * int) list;
  (* this run's optimizer counts over all three passes: nonzero, sorted
     by name *)
  mutable exec : exec_summary option;
  (* filled in by the bench harness and the serve engine, which execute
     the CSE plan *)
}

(* Named counters, one "name=value" list on a line.  Shared by
   [pp_steps] and the CLI's execution report, which prints the engine's
   [exec.*] counters through the same formatter. *)
let pp_counters ppf (counters : (string * int) list) =
  Fmt.pf ppf "counters: %s@."
    (String.concat "; "
       (List.map (fun (n, v) -> Fmt.str "%s=%d" n v) counters))

let pp_exec ppf (e : exec_summary) =
  let util = 100.0 *. utilization e in
  Fmt.pf ppf
    "exec: workers=%d batch_size=%d batches=%d wall=%.2fms busy=[%s] \
     util=%.0f%%@."
    e.workers e.batch_size e.batches
    (1000.0 *. e.wall_s)
    (String.concat " "
       (Array.to_list
          (Array.map (fun b -> Fmt.str "%.2fms" (1000.0 *. b)) e.busy_s)))
    util

(* Narrative of the four optimization steps (Figure 2 of the paper), for
   the CLI's explain output and for humans reading test failures. *)
let pp_steps ppf (r : report) =
  Fmt.pf ppf "Step 1 — identify common subexpressions (Algorithm 1):@.";
  if r.shared = [] then Fmt.pf ppf "  none found; phase 2 is a no-op@."
  else
    List.iter
      (fun (s : Spool.shared) ->
        Fmt.pf ppf "  spool group %d over group %d, %d consumers@."
          s.Spool.spool s.Spool.under s.Spool.initial_consumers)
      r.shared;
  Fmt.pf ppf "Step 2 — phase-1 property history (Section V):@.";
  List.iter
    (fun (g, n) -> Fmt.pf ppf "  shared group %d: %d property sets@." g n)
    r.history_sizes;
  Fmt.pf ppf "Step 3 — shared-group propagation and LCAs (Algorithm 3):@.";
  List.iter
    (fun (s, l) ->
      Fmt.pf ppf "  shared group %d: consumers {%s}, LCA = group %d%s@." s
        (String.concat ","
           (List.map string_of_int (Shared_info.consumers r.shared_info s)))
        l
        (if l = r.memo.Smemo.Memo.root then " (the root)" else ""))
    r.lcas;
  Fmt.pf ppf
    "Step 4 — re-optimization with enforcement (Algorithms 4-5): %d rounds \
     executed (full product: %d; VIII-A sequential: %d; dominance-pruned: \
     %d; bound-aborted: %d; phase-2 winner reuse: %d)@."
    r.rounds_executed r.rounds_naive r.rounds_sequential r.rounds_pruned
    r.rounds_aborted_bound r.phase2_winner_reuse_hits;
  Fmt.pf ppf "result: estimated cost %.5g -> %.5g (%.1f%%)@."
    r.conventional_cost r.cse_cost
    (100.0 *. r.cse_cost /. Float.max 1e-9 r.conventional_cost);
  if r.counters <> [] then pp_counters ppf r.counters

let ratio r = if r.conventional_cost = 0.0 then 1.0 else r.cse_cost /. r.conventional_cost

let reduction_percent r = 100.0 *. (1.0 -. ratio r)

exception No_plan of string

let run ?(config = Config.default) ?budget ?(cluster = Scost.Cluster.default)
    ~(catalog : Relalg.Catalog.t) (script : string) : report =
  let fe = Sobs.Trace.pid_frontend in
  let ast =
    Sobs.Trace.with_span ~pid:fe "parse" (fun () ->
        Slang.Parser.parse_script script)
  in
  let dag =
    Sobs.Trace.with_span ~pid:fe "bind" (fun () ->
        Slogical.Binder.bind ~catalog ast)
  in
  let memo =
    Sobs.Trace.with_span ~pid:fe "memo" (fun () ->
        Smemo.Memo.of_dag ~catalog ~machines:cluster.Scost.Cluster.machines
          dag)
  in
  let shared =
    Sobs.Trace.with_span ~pid:fe "identify shared (Algorithm 1)" (fun () ->
        Spool.identify memo)
  in
  let outcome = Phase2.optimize ~config ?budget ~cluster memo in
  let conventional_plan =
    match outcome.Phase2.conventional_plan with
    | Some p -> p
    | None -> raise (No_plan "conventional optimization produced no plan")
  in
  let cse_plan =
    match outcome.Phase2.plan with
    | Some p -> p
    | None -> raise (No_plan "CSE optimization produced no plan")
  in
  let phase1_plan =
    match outcome.Phase2.phase1_plan with Some p -> p | None -> cse_plan
  in
  let state = outcome.Phase2.state and ctx = outcome.Phase2.ctx in
  let si = Phase2.shared_info state in
  let lcas =
    List.filter_map
      (fun (s : Spool.shared) ->
        Option.map (fun l -> (s.Spool.spool, l))
          (Shared_info.lca_of_shared si s.Spool.spool))
      shared
  in
  let history_sizes =
    List.map
      (fun (s : Spool.shared) ->
        (s.Spool.spool, History.count state.Phase2.history s.Spool.spool))
      shared
  in
  let candidate_props =
    List.map
      (fun (s : Spool.shared) ->
        (s.Spool.spool, fst (History.candidates state.Phase2.history s.Spool.spool)))
      shared
  in
  {
    dag;
    conventional_plan;
    conventional_cost = Scost.Dagcost.cost cluster conventional_plan;
    conventional_time = outcome.Phase2.conventional_time;
    conventional_tasks = outcome.Phase2.conventional_tasks;
    cse_plan;
    cse_cost = Scost.Dagcost.cost cluster cse_plan;
    cse_time = outcome.Phase2.cse_time;
    cse_tasks = ctx.Sopt.Optimizer.tasks - outcome.Phase2.conventional_tasks;
    budget_exhausted = Sopt.Budget.exhausted ctx.Sopt.Optimizer.budget;
    phase1_plan;
    memo;
    shared;
    lcas;
    rounds_executed = state.Phase2.rounds_executed;
    rounds_naive = state.Phase2.rounds_naive;
    rounds_sequential = state.Phase2.rounds_sequential;
    rounds_pruned = state.Phase2.rounds_pruned;
    rounds_aborted_bound = state.Phase2.rounds_aborted_bound;
    phase2_winner_reuse_hits = outcome.Phase2.phase2_winner_hits;
    history_sizes;
    candidate_props;
    pruned_props = state.Phase2.pruned_props;
    shared_info = si;
    counters =
      Sopt.Optimizer.counters ctx
      |> List.filter (fun (_, n) -> n <> 0)
      |> List.sort compare;
    exec = None;
  }
