(* Optimizer figures summed over the pipeline reports a pass produced:
   phase times, counter deltas and phase-2 round accounting. *)

type t = {
  mutable conv_s : float;
  mutable cse_s : float;
  mutable tasks : int;
  mutable winner_hits : int;
  mutable winner_misses : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable rounds_executed : int;
  mutable rounds_aborted : int;
  mutable rounds_considered : int;  (* sequential - pruned *)
}

let create () =
  {
    conv_s = 0.0; cse_s = 0.0; tasks = 0; winner_hits = 0; winner_misses = 0;
    intern_hits = 0; intern_misses = 0; rounds_executed = 0;
    rounds_aborted = 0; rounds_considered = 0;
  }

let add t (r : Cse.Pipeline.report) =
  let c name = Option.value ~default:0 (List.assoc_opt name r.Cse.Pipeline.counters) in
  t.conv_s <- t.conv_s +. r.Cse.Pipeline.conventional_time;
  t.cse_s <- t.cse_s +. r.Cse.Pipeline.cse_time;
  t.tasks <- t.tasks + c "optimizer.tasks";
  t.winner_hits <- t.winner_hits + c "optimizer.winner_hits";
  t.winner_misses <- t.winner_misses + c "optimizer.winner_misses";
  t.intern_hits <- t.intern_hits + c "intern.hits";
  t.intern_misses <- t.intern_misses + c "intern.misses";
  t.rounds_executed <- t.rounds_executed + r.Cse.Pipeline.rounds_executed;
  t.rounds_aborted <- t.rounds_aborted + r.Cse.Pipeline.rounds_aborted_bound;
  t.rounds_considered <-
    t.rounds_considered + r.Cse.Pipeline.rounds_sequential
    - r.Cse.Pipeline.rounds_pruned

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer figures; times and counts per script or session. *)
let layers t ~items =
  let per x = x /. float_of_int (max 1 items) in
  [
    ("optimizer.conventional_ms", per (1000.0 *. t.conv_s));
    ("optimizer.cse_ms", per (1000.0 *. t.cse_s));
    ("optimizer.tasks", per (float_of_int t.tasks));
    ("optimizer.winner_hit_ratio", ratio t.winner_hits (t.winner_hits + t.winner_misses));
    ("intern.hit_ratio", ratio t.intern_hits (t.intern_hits + t.intern_misses));
    ("optimizer.rounds_executed", per (float_of_int t.rounds_executed));
    ("optimizer.rounds_aborted_ratio", ratio t.rounds_aborted t.rounds_considered);
  ]
