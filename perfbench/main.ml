(* The repository benchmark: one closed-loop workload per run, checked
   against the reference evaluator, with every metric printed by name and
   unit.  The last line of standard output is the result record:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With [--trace 0] the metrics are the end-to-end ones, measured with no
   spans recorded.  With [--trace 1] the run measures the same untraced
   passes, then replays one pass untraced and one with the benchmark's
   spans on, each on a fresh set-up, and reports per-layer figures: self
   times from the spans, times and counts from the values the library
   returns, and the tracing overhead (traced replay minus untraced
   replay).  See NOTES.md for why each workload exists and which metric
   each layer moves. *)

let end_to_end =
  [
    ("throughput_sps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("plan_cost_ratio", "ratio");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("frontend.parse_ms", "ms");
    ("frontend.bind_ms", "ms");
    ("frontend.memo_ms", "ms");
    ("optimizer.conventional_ms", "ms");
    ("optimizer.cse_ms", "ms");
    ("optimizer.tasks", "count");
    ("optimizer.winner_hit_ratio", "ratio");
    ("intern.hit_ratio", "ratio");
    ("optimizer.rounds_executed", "count");
    ("optimizer.rounds_aborted_ratio", "ratio");
    ("audit.deep_ms", "ms");
    ("audit.errors", "count");
    ("exec.stage_build_ms", "ms");
    ("exec.run_ms", "ms");
    ("exec.util", "ratio");
    ("exec.batches", "count");
    ("exec.rows_extracted", "count");
    ("exec.rows_shuffled", "count");
    ("exec.spool_reads_per_execution", "ratio");
    ("serve.flush_ms", "ms");
    ("serve.flush_non_exec_ms", "ms");
    ("serve.normalize_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.combined_runs", "count");
    ("serve.cross_script_shares", "count");
    ("serve.combine_fallback_ratio", "ratio");
    ("serve.invalidations", "count");
    ("serve.catalog_bump_ms", "ms");
    ("serve.share_cost_ratio", "ratio");
    ("check.error_rate", "ratio");
    ("latency.samples", "count");
    ("heap.end_mb", "MB");
    ("host.probe_ms", "ms");
    ("trace.untraced_s", "s");
    ("trace.traced_s", "s");
    ("trace.overhead_pct", "%");
  ]

(* Per-layer times that come from the benchmark's spans (self time per
   completed script or session); the other [_ms] figures are reported by
   the library itself (see NOTES.md). *)
let span_metrics =
  [
    "frontend.parse_ms"; "frontend.bind_ms"; "frontend.memo_ms";
    "audit.deep_ms"; "exec.stage_build_ms"; "exec.run_ms";
    "serve.normalize_ms";
  ]

let workloads =
  [
    ( "oneshot_ls",
      "LS1, LS2 and stratified LS-shaped variants through scopeopt run \
       --audit: phase 2, the deep audit and cold extraction block each \
       result" );
    ( "serve_hot",
      "one long-lived serve engine in steady state: most sessions hit the \
       plan cache; normalize, cache lookup and the executor do the work" );
    ( "serve_churn",
      "a statistics update after every batch: almost every session misses, \
       so the optimizer and the combined cross-script memo dominate" );
  ]

(* Result of one pass over a workload, whatever its kind. *)
type outcome = {
  pass_units : int;  (* items per pass: scripts or protocol steps *)
  passes : int;
  attempted : int;  (* scripts or sessions *)
  failed : int;
  first_pass_s : float;
      (* closed-loop time of the first pass, the checker excluded,
         calibrated *)
  throughput_sps : float;
  latency_p50_ms : float;
  latency_p90_ms : float;
  latency_samples : int;
  raw : float * float * float * int;  (* the same figures, uncalibrated *)
  probe_ms : float;  (* median host-speed probe time *)
  by_pass : (float * float) list;
      (* per pass: median probe time (ms), uncalibrated pass time (s) *)
  heap_mb : float;  (* top heap at the end of the first whole pass *)
  plan_cost_ratio : float;
  layers : (string * float) list;
  errors : string list;
  signature : float list;
      (* serve: deterministic counts of a pass, equal on the traced
         replay *)
}

(* End-to-end figures from per-item times: an item is a script
   ([oneshot_ls]) or a protocol step ([serve_*]), replayed identically
   every pass.  Each item's time is calibrated to the reference host
   speed (Stat.probe_ref_s) and reduced to its median over the passes, so
   neither a slow moment nor a slow minute on a shared host moves the
   figure; a session's latency is its batch's time; bumps count toward
   throughput only.  [raw] skips the calibration. *)
let figures ?raw samples sessions_of =
  let t = Stat.per_item ?raw samples in
  let sessions = Array.fold_left ( + ) 0 (Array.mapi (fun i _ -> sessions_of i) t) in
  let lat =
    List.concat
      (Array.to_list
         (Array.mapi (fun i x -> List.init (sessions_of i) (fun _ -> 1000.0 *. x)) t))
  in
  ( float_of_int sessions /. Array.fold_left ( +. ) 0.0 t,
    Stat.percentile 0.50 lat,
    Stat.percentile 0.90 lat,
    sessions )

let by_pass samples =
  List.init (Stat.passes samples) (fun p ->
      (1000.0 *. Stat.pass_probe samples p, Stat.pass_total ~raw:true samples p))

let of_oneshot (r : Oneshot.result) =
  let tput, p50, p90, n = figures r.Oneshot.samples (fun _ -> 1) in
  {
    pass_units = List.length r.Oneshot.costs;
    passes = r.Oneshot.scripts / List.length r.Oneshot.costs;
    attempted = r.Oneshot.scripts;
    failed = r.Oneshot.failed;
    first_pass_s = Stat.pass_total r.Oneshot.samples 0;
    throughput_sps = tput;
    latency_p50_ms = p50;
    latency_p90_ms = p90;
    latency_samples = n;
    raw = figures ~raw:true r.Oneshot.samples (fun _ -> 1);
    probe_ms = 1000.0 *. Stat.probe_median r.Oneshot.samples;
    by_pass = by_pass r.Oneshot.samples;
    heap_mb = r.Oneshot.first_pass_heap_mb;
    plan_cost_ratio =
      Stat.geomean
        (List.map
           (fun (cse, conv) -> if conv = 0.0 then 1.0 else cse /. conv)
           r.Oneshot.costs);
    layers = r.Oneshot.layers;
    errors = r.Oneshot.errors;
    (* the traced pass makes the same library calls in the same order *)
    signature = [];
  }

let of_serve (r : Serve.result) =
  let layer name = Option.value ~default:0.0 (List.assoc_opt name r.Serve.layers) in
  let sessions_of i = r.Serve.step_sessions.(i) in
  let tput, p50, p90, n = figures r.Serve.samples sessions_of in
  {
    pass_units = Array.length r.Serve.step_sessions;
    passes = r.Serve.steps / Array.length r.Serve.step_sessions;
    attempted = r.Serve.sessions;
    failed = r.Serve.failed;
    first_pass_s = Stat.pass_total r.Serve.samples 0;
    throughput_sps = tput;
    latency_p50_ms = p50;
    latency_p90_ms = p90;
    latency_samples = n;
    raw = figures ~raw:true r.Serve.samples sessions_of;
    probe_ms = 1000.0 *. Stat.probe_median r.Serve.samples;
    by_pass = by_pass r.Serve.samples;
    heap_mb = r.Serve.first_pass_heap_mb;
    plan_cost_ratio = layer "serve.share_cost_ratio";
    layers = r.Serve.layers;
    errors = r.Serve.errors;
    signature =
      [ layer "serve.cache_hit_ratio"; layer "serve.share_cost_ratio" ];
  }

(* Set-ups per run: at least [min_setups], and more (up to
   [max_setups]) while they add up to under a second, so a set-up of a
   few milliseconds is still a median of many.  [setup_s] is the median
   of their calibrated times; the last one is measured. *)
let min_setups = 3
let max_setups = 100

(* Untraced and traced replays of one pass in a traced run. *)
let replays = 3

type ('env, 'refs) kind = {
  setup : unit -> 'env;
  references : 'env -> 'refs;  (* the same for every set-up of a seed *)
  pass :
    Spans.t -> 'env -> 'refs -> [ `Seconds of float | `Units of int ] -> outcome;
}

(* The process's top heap after each phase of a run, in MB: the
   high-water mark only rises, so the phase where it rises is the one
   that set [peak_heap_mb]. *)
type heap = { setups : float; references : float; first_pass : float; end_ : float }

type report = {
  result : outcome;  (* untraced, or every pass of a traced run *)
  metrics : (string * float) list;
  mismatch : string list;
  untraced : outcome;
  setup_raw : float;
  heap : heap;
}

let json_metric (name, value, unit) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Sobs.Json.escape name)
    (Printf.sprintf "%.17g" value)
    (Sobs.Json.escape unit)

let run (type env refs) ~seconds ~trace ~trace_file (kind : (env, refs) kind) =
  let setup_times = ref [] and setup_calibrated = ref [] in
  let more () =
    let n = List.length !setup_times in
    n < min_setups
    || (n < max_setups && List.fold_left ( +. ) 0.0 !setup_times < 1.0)
  in
  (* Each set-up starts on a collected heap with no earlier set-up
     reachable (the recursive call is a tail call), so the heap's
     high-water mark holds one workload state, not several. *)
  let rec setups () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let env = kind.setup () in
    let dt = Unix.gettimeofday () -. t0 in
    setup_times := dt :: !setup_times;
    (* Each set-up is calibrated by the probe right after it.  The probe
       is also the pause measured items get: set-ups of a few
       milliseconds run back to back read up to twice as slow, and far
       less steadily, on the tuning host. *)
    setup_calibrated := (dt *. Stat.probe_ref_s /. Stat.probe ()) :: !setup_calibrated;
    if more () then setups () else env
  in
  let env = setups () in
  let heap_setups = Stat.top_heap_mb () in
  let refs = Check.in_child kind.references env in
  let heap_references = Stat.top_heap_mb () in
  let setup_raw = Stat.median !setup_times in
  let untraced = kind.pass (Spans.create ()) env refs (`Seconds seconds) in
  let setup_s = Stat.median !setup_calibrated in
  let heap =
    { setups = heap_setups; references = heap_references;
      first_pass = untraced.heap_mb; end_ = Stat.top_heap_mb () }
  in
  if not trace then
    {
      result = untraced;
      metrics =
        [
          ("throughput_sps", untraced.throughput_sps);
          ("latency_p50_ms", untraced.latency_p50_ms);
          ("latency_p90_ms", untraced.latency_p90_ms);
          ("plan_cost_ratio", untraced.plan_cost_ratio);
          ("setup_s", setup_s);
          ("peak_heap_mb", untraced.heap_mb);
        ];
      mismatch = [];
      untraced;
      setup_raw;
      heap;
    }
  else begin
    (* Tracing overhead: one pass replayed untraced, then traced, [replays]
       times in turn, each on a fresh set-up after the timed passes, so
       all start from the same workload state and the same grown heap;
       the overhead compares the median replay of each kind, since one
       pass on a shared host differs from the next by more than the
       spans cost. *)
    let replay ~on =
      Gc.full_major ();
      let env = kind.setup () in
      let sp = Spans.create () in
      if on then Spans.start sp;
      let r = kind.pass sp env refs (`Units untraced.pass_units) in
      Spans.stop sp;
      (sp, r)
    in
    let pairs =
      List.init replays (fun _ ->
          let _, plain = replay ~on:false in
          (plain, replay ~on:true))
    in
    let plains = List.map fst pairs and traceds = List.map (fun (_, (_, t)) -> t) pairs in
    let median_s outcomes = Stat.median (List.map (fun o -> o.first_pass_s) outcomes) in
    (* the last traced replay's spans give the per-layer figures *)
    let sp, traced = snd (List.nth pairs (replays - 1)) in
    Spans.export sp ~path:trace_file;
    let all = (untraced :: plains) @ traceds in
    let failed = List.fold_left (fun n o -> n + o.failed) 0 all in
    let attempted = List.fold_left (fun n o -> n + o.attempted) 0 all in
    let self = Spans.self_seconds sp in
    let per_item = float_of_int (max 1 traced.attempted) in
    let from_spans =
      List.filter_map
        (fun name ->
          let s = self name in
          if s > 0.0 then Some (name, 1000.0 *. s /. per_item) else None)
        span_metrics
    in
    let layer name =
      match List.assoc_opt name from_spans with
      | Some v -> v
      | None -> Option.value ~default:0.0 (List.assoc_opt name traced.layers)
    in
    let extra =
      [
        ( "check.error_rate",
          float_of_int failed /. float_of_int (max 1 attempted) );
        ("latency.samples", float_of_int untraced.latency_samples);
        ("heap.end_mb", heap.end_);
        ("host.probe_ms", untraced.probe_ms);
        ("trace.untraced_s", median_s plains);
        ("trace.traced_s", median_s traceds);
        ( "trace.overhead_pct",
          100.0 *. (median_s traceds -. median_s plains) /. median_s plains );
      ]
    in
    {
      result =
        { traced with failed; attempted;
          errors = List.concat_map (fun o -> o.errors) all };
      metrics =
        List.map
          (fun (name, _) ->
            (name, match List.assoc_opt name extra with Some v -> v | None -> layer name))
          per_layer;
      mismatch =
        (if List.for_all (fun o -> o.signature = traced.signature) plains then []
         else [ "the traced replays' serve counts differ from the untraced ones" ]);
      untraced;
      setup_raw;
      heap;
    }
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and nproc = ref 1 and trace_file = ref "perfbench-trace.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oneshot_ls, serve_hot or serve_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per pass");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--nproc", Arg.Set_int nproc, "N processors available to this process");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let why =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let recommended = Domain.recommended_domain_count () in
  (* One executor worker: [Sutil.Pool.with_pool] starts its domains
     afresh for every plan run, and on a shared two-core host a two-worker
     pool ran serve_hot slower and far less steadily (see NOTES.md). *)
  let workers = 1 in
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let trace_file = !trace_file in
  Stat.probe_start ();
  let r =
    Fun.protect ~finally:Stat.probe_stop (fun () ->
        match !workload with
        | "oneshot_ls" ->
            run ~seconds ~trace ~trace_file
              {
                setup = Oneshot.setup ~seed;
                references = Oneshot.references;
                pass = (fun sp scripts refs limit ->
                  of_oneshot (Oneshot.pass ~workers ~sp scripts refs limit));
              }
        | name ->
            run ~seconds ~trace ~trace_file
              {
                setup = Serve.setup ~churn:(name = "serve_churn") ~workers ~seed;
                references = Serve.references;
                pass = (fun sp env refs limit -> of_serve (Serve.pass ~sp env refs limit));
              })
  in
  let result = r.result and untraced = r.untraced in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d \
     recommended_domain_count=%d workers=%d\n"
    !workload seed seconds (if trace then 1 else 0) !nproc recommended workers;
  Printf.printf "why: %s\n" why;
  Printf.printf
    "checked: attempted=%d failed=%d error_rate=%g latency_samples=%d \
     passes=%d first_pass_s=%.3f\n"
    result.attempted result.failed
    (float_of_int result.failed /. float_of_int (max 1 result.attempted))
    untraced.latency_samples untraced.passes untraced.first_pass_s;
  (let t, p50, p90, _ = untraced.raw in
   Printf.printf
     "uncalibrated: throughput_sps=%.4f latency_p50_ms=%.4f \
      latency_p90_ms=%.4f setup_s=%.4f host_probe_ms=%.3f (reference %.3f)\n"
     t p50 p90 r.setup_raw untraced.probe_ms (1000.0 *. Stat.probe_ref_s));
  Printf.printf "by_pass (probe ms / uncalibrated s):%s\n"
    (String.concat ""
       (List.map (fun (p, t) -> Printf.sprintf " %.3f/%.3f" p t) untraced.by_pass));
  Printf.printf
    "top_heap_mb: after_setups=%.1f after_references=%.1f \
     after_first_pass=%.1f end=%.1f\n"
    r.heap.setups r.heap.references r.heap.first_pass r.heap.end_;
  if trace then Printf.printf "trace: %s\n" trace_file;
  List.iteri
    (fun i e -> if i < 20 then Printf.eprintf "perfbench: %s\n" e)
    (result.errors @ r.mismatch);
  let correct = result.failed = 0 && r.mismatch = [] in
  let units = if trace then per_layer else end_to_end in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct result.attempted
    (result.failed + List.length r.mismatch)
    (String.concat ", "
       (List.map
          (fun (name, value) -> json_metric (name, value, List.assoc name units))
          r.metrics));
  exit (if correct then 0 else 1)
