(* Baseline drift checker for BENCH_opt.json.

   CI runs the quick bench on every push and compares the fresh JSON
   against the committed baseline: the optimizer's *deterministic*
   outputs — estimated plan costs, task counts and the round-pruning
   counters — must match exactly for every workload present in both
   files.  Wall times, heap figures and anything else
   environment-dependent are exempt, so the check is stable across
   machines while still catching a plan-quality or search-effort
   regression the moment it lands.

   In every mode, each compared fresh workload's [cse_cost] must also be
   at most its [conventional_cost]: the pipeline returns the cheapest of
   its conventional, phase-1 and phase-2 plans.

   Three further modes:

   - [--equivalence] compares only the plan-quality fields (the costs).
     Used on a pruned run vs a [--no-prune] run of the *same* build,
     where the search-effort counters legitimately differ but a single
     ulp of cost drift means a pruning layer discarded a winner.

   - [--perf FACTOR] additionally requires, per workload, that the fresh
     run's [rounds_executed] is at most baseline / FACTOR, and that its
     [cse_time_s] does not exceed the baseline's by more than 10%.  Used
     on a pruned run vs a same-machine [--no-prune] run to enforce the
     >= FACTOR round reduction the pruning layers claim (wall clocks are
     only compared within one machine, never against the committed
     baseline).

   - [--exec-perf FACTOR] gates the vectorized executor: per workload,
     the fresh run's measured [exec_wall_w1_s] must be at most
     baseline / FACTOR, and its [exec_wall_wN_s] must not exceed its own
     [exec_wall_w1_s] by more than 25% (the hardware-parallelism cap
     promises the parallel configuration never regresses the sequential
     one).  FACTOR > 1 demands a speedup over the baseline; FACTOR < 1 is
     a regression allowance (CI runs [--exec-perf 0.6], i.e. at most
     ~1.7x the committed wall, which absorbs shared-runner noise).  Wall-clock gates stay restricted to
     the large workloads ([--only LS1,LS2]) where the signal is outside
     the noise floor.

   The two same-run wall checks ([cse_time_s] under [--perf],
   [exec_wall_wN_s] under [--exec-perf]) are skipped when their
   reference wall is under [noise_floor_s]: below it, scheduler jitter
   alone exceeds their margins and the checks would fail on noise.

   Both files must be [scopecse-bench-opt/2] documents; fields are read
   by path with Sobs.Json.  A gated field missing from either file is a
   drift: a renamed field must fail the gate, not disable it.

   Usage: compare [--equivalence | --perf FACTOR | --exec-perf FACTOR]
                  [--only W1,W2] BASELINE.json FRESH.json *)

let schema = "scopecse-bench-opt/2"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* The workloads of a bench document, by name. *)
let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  let doc =
    try Sobs.Json.parse text
    with Sobs.Json.Parse_error msg -> fail "%s: %s" path msg
  in
  (match Option.bind (Sobs.Json.member "schema" doc) Sobs.Json.to_str with
  | Some s when s = schema -> ()
  | s ->
      fail "%s: schema %s, expected %s" path
        (Option.value ~default:"missing" s)
        schema);
  List.map
    (fun w ->
      match Option.bind (Sobs.Json.member "name" w) Sobs.Json.to_str with
      | Some name -> (name, w)
      | None -> fail "%s: a workload without a name" path)
    (Option.value ~default:[]
       (Option.bind (Sobs.Json.member "workloads" doc) Sobs.Json.to_list))

let field w path =
  Option.bind
    (List.fold_left
       (fun v key -> Option.bind v (Sobs.Json.member key))
       (Some w) path)
    Sobs.Json.to_float

let opt name = [ "optimization"; name ]

(* The deterministic fields: identical runs of the same code must agree
   exactly.  Costs are doubles written round-trip exact; tasks, rounds,
   the pruning counters, the memo's size, the stage count and the batch
   count are integers. *)
let drift_fields =
  List.map opt
    [
      "conventional_cost";
      "cse_cost";
      "conventional_tasks";
      "cse_tasks";
      "rounds_executed";
      "rounds_pruned";
      "rounds_aborted_bound";
      "phase2_winner_reuse_hits";
    ]
  @ [ [ "memo_groups" ]; [ "memo_exprs" ]; [ "stages" ]; [ "exec_batches" ] ]

(* Plan quality alone: what a pruned and an exhaustive run of the same
   build must agree on bit-for-bit. *)
let equivalence_fields = List.map opt [ "conventional_cost"; "cse_cost" ]

type mode = Drift | Equivalence | Perf of float | ExecPerf of float

(* Walls under this many seconds are not compared with each other. *)
let noise_floor_s = 0.02

let usage () =
  fail
    "usage: compare [--equivalence | --perf FACTOR | --exec-perf FACTOR] \
     [--only W1,W2] BASELINE.json FRESH.json"

let () =
  let mode = ref Drift in
  let only = ref None in
  let files = ref [] in
  let factor f =
    match float_of_string_opt f with Some f when f > 0.0 -> f | _ -> usage ()
  in
  let rec parse = function
    | "--equivalence" :: tl -> mode := Equivalence; parse tl
    | "--perf" :: f :: tl -> mode := Perf (factor f); parse tl
    | "--exec-perf" :: f :: tl -> mode := ExecPerf (factor f); parse tl
    | "--only" :: names :: tl ->
        only := Some (String.split_on_char ',' names);
        parse tl
    | path :: tl -> files := path :: !files; parse tl
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !files with [ b; f ] -> (b, f) | _ -> usage ()
  in
  let baseline = load baseline_path in
  let fresh = load fresh_path in
  let wanted name =
    match !only with None -> true | Some names -> List.mem name names
  in
  let drift = ref 0 in
  (* the fresh file's own cost check, counted apart from drifts *)
  let costlier = ref 0 in
  let compared = ref 0 in
  let fields_compared = ref 0 in
  let report fmt =
    incr drift;
    Printf.printf fmt
  in
  (* a same-run wall must stay within [margin] of its reference wall *)
  let wall_check name field ~ref_field ~reference ~margin value =
    let pct = int_of_float (Float.round (margin *. 100.0)) in
    if reference < noise_floor_s then
      Printf.printf "%-5s %s %.6f under noise floor, skipped (%s %.6f)\n" name
        ref_field reference field value
    else if value > reference *. (1.0 +. margin) then
      report "%-5s %s %.6f exceeds %s %.6f (+%d%%)\n" name field value
        ref_field reference pct
    else
      Printf.printf "%-5s %s %.6f <= %s %.6f +%d%%\n" name field value
        ref_field reference pct
  in
  (* perf mode compares a pruned against an exhaustive run: costs must
     still match bit-for-bit, but the search-effort counters (tasks,
     rounds, pruning tallies) legitimately differ *)
  let checked_fields =
    match !mode with
    | Drift -> drift_fields
    | Perf _ | Equivalence -> equivalence_fields
    (* exec-perf compares wall clocks across builds of possibly different
       optimizer behaviour: gate only the executor figures *)
    | ExecPerf _ -> []
  in
  List.iter
    (fun (name, w) ->
      if wanted name then
        match (field w (opt "cse_cost"), field w (opt "conventional_cost")) with
        | Some c, Some v when c <= v -> ()
        | Some c, Some v ->
            incr costlier;
            Printf.printf "%-5s cse_cost %.17g above conventional_cost %.17g\n"
              name c v
        | _ -> report "%-5s cse_cost or conventional_cost missing\n" name)
    fresh;
  List.iter
    (fun (name, fresh_w) ->
      match List.assoc_opt name baseline with
      | _ when not (wanted name) -> ()
      | None -> Printf.printf "%-5s not in baseline, skipped\n" name
      | Some base_w ->
          incr compared;
          (* the (baseline, fresh) values of a gated field; a side
             without it is a drift *)
          let both path k =
            let p = String.concat "." path in
            match (field base_w path, field fresh_w path) with
            | Some b, Some v ->
                incr fields_compared;
                k b v
            | None, _ -> report "%-5s %s missing from baseline\n" name p
            | _, None -> report "%-5s %s missing from fresh run\n" name p
          in
          List.iter
            (fun path ->
              both path (fun b v ->
                  if b <> v then
                    report "%-5s %s drifted: baseline %.17g, now %.17g\n" name
                      (String.concat "." path) b v))
            checked_fields;
          match !mode with
          | Perf factor ->
              both (opt "rounds_executed") (fun b v ->
                  if v *. factor > b then
                    report
                      "%-5s rounds_executed %.0f not %.2gx under baseline \
                       %.0f\n"
                      name v factor b
                  else
                    Printf.printf "%-5s rounds_executed %.0f <= %.0f / %.2g\n"
                      name v b factor);
              (* same-machine wall clock: the pruned run must not be
                 slower than the exhaustive one beyond scheduler noise *)
              both (opt "cse_time_s") (fun b v ->
                  wall_check name "cse_time_s" ~ref_field:"baseline cse_time_s"
                    ~reference:b ~margin:0.1 v)
          | ExecPerf factor ->
              (* the committed sequential wall must improve >= FACTOR *)
              both [ "exec_wall_w1_s" ] (fun b v ->
                  if v *. factor > b then
                    report
                      "%-5s exec_wall_w1_s %.6f not %.2gx under baseline %.6f\n"
                      name v factor b
                  else
                    Printf.printf "%-5s exec_wall_w1_s %.6f <= %.6f / %.2g\n"
                      name v b factor);
              (* same-run comparison: the parallel configuration must not
                 regress the sequential one beyond scheduler noise *)
              (match
                 (field fresh_w [ "exec_wall_w1_s" ],
                  field fresh_w [ "exec_wall_wN_s" ])
               with
              | Some w1, Some wn ->
                  wall_check name "exec_wall_wN_s" ~ref_field:"exec_wall_w1_s"
                    ~reference:w1 ~margin:0.25 wn
              | _ -> report "%-5s exec_wall_wN_s missing from fresh run\n" name)
          | Drift | Equivalence -> ())
    fresh;
  if !compared = 0 then begin
    print_endline "no workloads in common: nothing compared";
    exit 2
  end;
  let failures =
    List.filter_map
      (fun (n, what) -> if n = 0 then None else Some (Printf.sprintf "%d %s" n what))
      [
        (!costlier, "CSE plan(s) costlier than the conventional plan");
        (!drift, "drift(s) against the committed baseline");
      ]
  in
  if failures = [] then
    Printf.printf "baseline match (%s): %d workload(s), %d field(s) compared\n"
      (match !mode with
      | Drift -> "drift"
      | Equivalence -> "equivalence"
      | Perf f -> Printf.sprintf "perf %.2gx" f
      | ExecPerf f -> Printf.sprintf "exec-perf %.2gx" f)
      !compared !fields_compared
  else begin
    print_endline (String.concat "; " failures);
    exit 1
  end
