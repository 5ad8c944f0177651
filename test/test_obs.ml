(* Observability-layer tests: trace recording, export and re-parsing,
   the well-formedness checker, the allocation-free disabled path, the
   drop-newest capacity policy, log-bucketed histograms, and stability
   of the traced pipeline across worker counts. *)

module T = Sobs.Trace
module H = Sobs.Hist
module M = Sobs.Metrics

(* --- trace recording and export ------------------------------------------ *)

(* Export to a temporary file and parse it back: (ring flag, events). *)
let roundtrip ?ring evs =
  let path = Filename.temp_file "scopecse-test-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.export ?ring ~path evs;
      T.parse_doc (In_channel.with_open_text path In_channel.input_all))

let test_chrome_roundtrip () =
  T.start ();
  T.with_span ~pid:T.pid_phase1
    ~args:[ ("group", T.Int 7) ]
    "OptimizeGroup"
    (fun () ->
      T.instant ~pid:T.pid_phase1
        ~args:[ ("rule", T.Str "gb_split"); ("cost", T.Float 1.5) ]
        "rule.fired");
  T.stop ();
  let evs = T.collect () in
  Alcotest.(check (list string)) "well-formed" [] (T.check evs);
  Alcotest.(check int) "three events" 3 (List.length evs);
  let _, parsed = roundtrip evs in
  (* timestamps are serialized at microsecond precision; compare the
     rest of the event structurally *)
  let strip (e : T.event) = { e with T.ts = 0.0 } in
  Alcotest.(check bool) "round-trip preserves kind/name/pid/tid/args" true
    (List.map strip evs = List.map strip parsed);
  Alcotest.(check (list string)) "parsed trace well-formed" []
    (T.check parsed)

let mk kind name ts : T.event =
  { T.kind; name; pid = 1; tid = 0; ts; args = [] }

let test_check_violations () =
  let bad msg evs =
    Alcotest.(check bool) msg true (T.check evs <> [])
  in
  Alcotest.(check (list string)) "balanced trace passes" []
    (T.check [ mk T.Begin "a" 1.0; mk T.Instant "x" 1.5; mk T.End "a" 2.0 ]);
  bad "end without begin" [ mk T.End "a" 1.0 ];
  bad "unclosed span" [ mk T.Begin "a" 1.0 ];
  bad "name mismatch"
    [ mk T.Begin "a" 1.0; mk T.End "b" 2.0; mk T.End "a" 3.0 ];
  bad "timestamp going backwards"
    [ mk T.Begin "a" 2.0; mk T.End "a" 1.0 ];
  (* spans on distinct tids do not have to interleave in a stack *)
  let other = { (mk T.Begin "b" 1.5) with T.tid = 1 } in
  let other_end = { (mk T.End "b" 3.0) with T.tid = 1 } in
  Alcotest.(check (list string)) "per-tid stacks are independent" []
    (T.check
       [ mk T.Begin "a" 1.0; other; mk T.End "a" 2.0; other_end ])

let test_disabled_zero_alloc () =
  T.stop ();
  (* warm up once so any one-time initialization is out of the way *)
  T.begin_span ~pid:1 "warm";
  T.instant ~pid:1 "warm";
  T.end_span ~pid:1 "warm";
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.begin_span ~pid:1 "hot";
    T.instant ~pid:1 "hot";
    T.end_span ~pid:1 "hot"
  done;
  let m1 = Gc.minor_words () in
  (* 30k recording calls: even one word per call would show up as 30k;
     allow slack for the Gc.minor_words boxes themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocation-free (%.0f minor words)"
       (m1 -. m0))
    true
    (m1 -. m0 < 256.0)

let test_drop_newest () =
  (* capacity is clamped to at least 1024 events per domain *)
  T.start ~capacity:16 ();
  for i = 1 to 1500 do
    T.instant ~pid:1 ~args:[ ("i", T.Int i) ] "tick"
  done;
  T.stop ();
  let evs = T.collect () in
  Alcotest.(check int) "kept exactly capacity" 1024 (List.length evs);
  Alcotest.(check int) "counted the overflow" 476 (T.dropped ());
  (match evs with
  | first :: _ ->
      Alcotest.(check bool) "drop-newest keeps the oldest event" true
        (List.assoc "i" first.T.args = T.Int 1)
  | [] -> Alcotest.fail "empty trace");
  (* a fresh generation starts clean *)
  T.start ();
  T.stop ();
  Alcotest.(check int) "new generation resets drops" 0 (T.dropped ());
  Alcotest.(check int) "new generation resets events" 0
    (List.length (T.collect ()))

(* --- ring mode (the flight recorder's window) ---------------------------- *)

let test_ring_overwrites_oldest () =
  (* same capacity clamp as drop-newest, opposite policy: the ring keeps
     the NEWEST window and overwrites the oldest *)
  T.start ~capacity:16 ~ring:true ();
  Alcotest.(check bool) "ring mode reported" true (T.ring ());
  for i = 1 to 1500 do
    T.instant ~pid:1 ~args:[ ("i", T.Int i) ] "tick"
  done;
  T.stop ();
  let evs = T.collect () in
  Alcotest.(check int) "kept exactly capacity" 1024 (List.length evs);
  Alcotest.(check int) "counted the overwrites" 476 (T.dropped ());
  (match (evs, List.rev evs) with
  | first :: _, last :: _ ->
      Alcotest.(check bool) "oldest kept event is the 477th" true
        (List.assoc "i" first.T.args = T.Int 477);
      Alcotest.(check bool) "newest event survives" true
        (List.assoc "i" last.T.args = T.Int 1500)
  | _ -> Alcotest.fail "empty trace");
  T.start ();
  T.stop ();
  Alcotest.(check bool) "plain start clears ring mode" false (T.ring ())

let test_ring_doc_roundtrip () =
  let evs = [ mk T.Begin "a" 1.0; mk T.End "a" 2.0 ] in
  let ring, parsed = roundtrip ~ring:true evs in
  Alcotest.(check bool) "ring flag round-trips" true ring;
  Alcotest.(check int) "events round-trip" 2 (List.length parsed);
  let ring', _ = roundtrip evs in
  Alcotest.(check bool) "plain traces parse as non-ring" false ring'

let test_ring_check_tolerance () =
  (* truncation artifacts of overwriting the oldest events: an End whose
     Begin was overwritten (it arrives at an empty stack) and a span
     still open when the dump was cut *)
  let truncated =
    [ mk T.End "a" 1.0; mk T.Begin "b" 2.0; mk T.End "b" 3.0;
      mk T.Begin "c" 4.0 ]
  in
  Alcotest.(check bool) "strict check rejects truncation" true
    (T.check truncated <> []);
  Alcotest.(check (list string)) "ring check tolerates truncation" []
    (T.check ~ring:true truncated);
  (* genuine violations stay violations under ring tolerance *)
  let bad msg evs =
    Alcotest.(check bool) msg true (T.check ~ring:true evs <> [])
  in
  bad "ring: name mismatch still flagged"
    [ mk T.Begin "a" 1.0; mk T.Begin "b" 2.0; mk T.End "a" 3.0;
      mk T.End "a" 4.0 ];
  bad "ring: backwards timestamps still flagged"
    [ mk T.Begin "a" 2.0; mk T.End "a" 1.0 ]

let test_epoch_scoping () =
  (* each start () opens a fresh epoch: collect returns only the new
     epoch's events, never residue from an earlier run in the same
     process — the contract the serve loop's per-batch traces rely on *)
  T.start ();
  T.instant ~pid:1 "first-run";
  T.instant ~pid:1 "first-run";
  T.stop ();
  Alcotest.(check int) "first epoch events" 2 (List.length (T.collect ()));
  T.start ();
  T.instant ~pid:1 "second-run";
  T.stop ();
  let evs = T.collect () in
  Alcotest.(check int) "only this epoch's events" 1 (List.length evs);
  Alcotest.(check bool) "no stale event names" true
    (List.for_all (fun (e : T.event) -> e.T.name = "second-run") evs);
  (* timestamps restart with the epoch *)
  Alcotest.(check bool) "timestamps restart near zero" true
    (List.for_all (fun (e : T.event) -> e.T.ts < 1_000_000.0) evs)

let test_export_protected () =
  let evs = [ mk T.Begin "a" 1.0; mk T.End "a" 2.0 ] in
  let path = Filename.temp_file "scopecse-test-export" ".json" in
  T.export ~path evs;
  let _, parsed =
    T.parse_doc (In_channel.with_open_text path In_channel.input_all)
  in
  Sys.remove path;
  Alcotest.(check int) "export round-trips" 2 (List.length parsed);
  (* a path that cannot be opened raises and must not leave a file *)
  let bad = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir" in
  let bad_path = Filename.concat bad "trace.json" in
  (match T.export ~path:bad_path evs with
  | () -> Alcotest.fail "export to missing directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no partial file left" false (Sys.file_exists bad_path)

(* --- traced pipeline: well-formed and stable across worker counts -------- *)

(* Run the full pipeline plus a staged execution under tracing and
   return the collected events.  The span structure (kind, phase, name)
   must not depend on the worker count: the wave scheduler promises the
   same logical schedule, and the optimizer runs on the main domain. *)
let traced_run workers =
  let catalog = Thelpers.default_catalog () in
  T.start ();
  let r =
    Thelpers.pipeline ~audit:false ~catalog Sworkload.Paper_scripts.s2
  in
  let engine = Sexec.Engine.create ~workers ~machines:25 catalog in
  ignore (Sexec.Engine.run engine r.Cse.Pipeline.cse_plan);
  T.stop ();
  T.collect ()

let projection evs =
  List.map
    (fun (e : T.event) ->
      Printf.sprintf "%s|%d|%s"
        (match e.T.kind with
        | T.Begin -> "B"
        | T.End -> "E"
        | T.Instant -> "i")
        e.T.pid e.T.name)
    evs
  |> List.sort String.compare

let test_pipeline_trace_stability () =
  let base = traced_run 1 in
  Alcotest.(check (list string)) "workers=1 well-formed" [] (T.check base);
  let proj1 = projection base in
  Alcotest.(check bool) "has stage spans" true
    (List.mem "B|5|stage 0" proj1);
  Alcotest.(check bool) "has stage-graph span" true
    (List.mem "B|4|build stage graph" proj1);
  Alcotest.(check bool) "has phase-2 span" true (List.mem "B|3|phase 2" proj1);
  Alcotest.(check bool) "has optimizer group spans" true
    (List.mem "B|2|OptimizeGroup" proj1);
  List.iter
    (fun workers ->
      let evs = traced_run workers in
      Alcotest.(check (list string))
        (Printf.sprintf "workers=%d well-formed" workers)
        [] (T.check evs);
      Alcotest.(check (list string))
        (Printf.sprintf "workers=%d same span multiset as workers=1" workers)
        proj1 (projection evs))
    [ 2; 8 ]

(* --- histograms ----------------------------------------------------------- *)

let test_hist_quantiles () =
  let h = H.make () in
  List.iter (H.observe h) [ 0.5; 1.0; 4.0 ];
  let s = H.summarize h in
  Alcotest.(check int) "count" 3 s.H.count;
  Alcotest.(check (float 1e-9)) "sum" 5.5 s.H.sum;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.H.max;
  (* p50 is the upper bound of the median bucket [1,2) *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.H.p50;
  (* p90 lands in the [4,8) bucket, clamped to the observed max *)
  Alcotest.(check (float 1e-9)) "p90" 4.0 s.H.p90;
  Alcotest.(check bool) "bucket upper bounds" true
    (List.map fst s.H.buckets = [ 1.0; 2.0; 8.0 ])

let test_hist_low_bucket () =
  let h = H.make () in
  H.observe h 0.0;
  H.observe h (-1.0);
  let s = H.summarize h in
  Alcotest.(check int) "zero and negatives counted" 2 s.H.count;
  Alcotest.(check bool) "both in the lowest bucket" true
    (s.H.buckets = [ (Float.ldexp 1.0 (-40), 2) ]);
  Alcotest.(check (float 1e-9)) "max clamps to zero" 0.0 s.H.max

let test_hist_hammer () =
  let h = H.make () in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              H.observe h 1.0
            done))
  in
  List.iter Domain.join ds;
  let s = H.summarize h in
  Alcotest.(check int) "no lost increments" 40_000 s.H.count;
  Alcotest.(check (float 1e-6)) "no lost sum" 40_000.0 s.H.sum;
  Alcotest.(check (float 1e-9)) "max" 1.0 s.H.max

(* Quantiles must be well-defined at 0 and 1 observations: an empty
   histogram reads as all zeros (never NaN or a bucket bound), and a
   single observation reports itself as every quantile — the
   log-bucket upper bound is clamped to the exact extremes. *)
let test_hist_empty_summary () =
  let h = H.make () in
  let s = H.summarize h in
  Alcotest.(check int) "count" 0 s.H.count;
  Alcotest.(check (float 0.0)) "sum" 0.0 s.H.sum;
  Alcotest.(check (float 0.0)) "p50" 0.0 s.H.p50;
  Alcotest.(check (float 0.0)) "p90" 0.0 s.H.p90;
  Alcotest.(check (float 0.0)) "min" 0.0 s.H.min;
  Alcotest.(check (float 0.0)) "max" 0.0 s.H.max;
  Alcotest.(check bool) "no buckets" true (s.H.buckets = [])

let test_hist_single_observation () =
  let h = H.make () in
  H.observe h 3.0;
  let s = H.summarize h in
  Alcotest.(check int) "count" 1 s.H.count;
  (* without clamping the [2,4) log bucket would report 4.0 *)
  Alcotest.(check (float 0.0)) "p50 is the observation" 3.0 s.H.p50;
  Alcotest.(check (float 0.0)) "p90 is the observation" 3.0 s.H.p90;
  Alcotest.(check (float 0.0)) "min" 3.0 s.H.min;
  Alcotest.(check (float 0.0)) "max" 3.0 s.H.max

let test_hist_quantiles_within_extremes () =
  let h = H.make () in
  List.iter (H.observe h) [ 3.0; 3.5; 3.7 ];
  let s = H.summarize h in
  Alcotest.(check bool) "p50 within [min,max]" true
    (s.H.min <= s.H.p50 && s.H.p50 <= s.H.max);
  Alcotest.(check bool) "p90 within [min,max]" true
    (s.H.min <= s.H.p90 && s.H.p90 <= s.H.max);
  (* non-finite observations are clamped to zero, not poisoning the
     extremes *)
  H.observe h Float.nan;
  let s = H.summarize h in
  Alcotest.(check int) "nan counted" 4 s.H.count;
  Alcotest.(check (float 0.0)) "nan clamps to zero min" 0.0 s.H.min;
  Alcotest.(check bool) "max unchanged" true (s.H.max = 3.7)

(* --- the metrics registry ------------------------------------------------- *)

let test_metrics_counter_gauge () =
  let m = M.create () in
  M.bump m "req.total";
  M.bump m ~by:4 "req.total";
  Alcotest.(check int) "counter reads" 5 (M.get m "req.total");
  Alcotest.(check int) "absent counter reads zero" 0 (M.get m "req.other");
  M.set m "queue.depth" 7.5;
  M.set m "queue.depth" 3.0;
  match M.snapshot m with
  | [ g; c ] ->
      Alcotest.(check string) "sorted by name" "queue.depth" g.M.name;
      Alcotest.(check bool) "gauge keeps last value" true
        (g.M.value = M.Value 3.0);
      Alcotest.(check bool) "counter row" true (c.M.value = M.Count 5)
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_metrics_labels_normalized () =
  let m = M.create () in
  M.bump m ~labels:[ ("b", "2"); ("a", "1") ] "x";
  M.bump m ~labels:[ ("a", "1"); ("b", "2") ] "x";
  Alcotest.(check int) "label order does not split the series" 2
    (M.get m ~labels:[ ("b", "2"); ("a", "1") ] "x");
  match M.snapshot m with
  | [ r ] ->
      Alcotest.(check (list (pair string string))) "labels stored sorted"
        [ ("a", "1"); ("b", "2") ] r.M.labels
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_metrics_kind_mismatch () =
  let m = M.create () in
  M.bump m "strict.kind";
  (match M.set m "strict.kind" 1.0 with
  | () -> Alcotest.fail "gauge write to a counter series succeeded"
  | exception Invalid_argument _ -> ());
  (match M.observe m "strict.kind" 1.0 with
  | () -> Alcotest.fail "histogram write to a counter series succeeded"
  | exception Invalid_argument _ -> ())

let test_metrics_histogram_and_exposition () =
  let m = M.create () in
  M.observe m ~labels:[ ("path", "hit") ] "lat" 1.0;
  M.observe m ~labels:[ ("path", "hit") ] "lat" 2.0;
  M.bump m ~labels:[ ("tenant", "blue") ] "served";
  let rows = M.snapshot m in
  let prom = M.to_prom rows in
  let has needle =
    let nl = String.length needle and pl = String.length prom in
    let rec at i =
      i + nl <= pl && (String.sub prom i nl = needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "prom histogram count sample" true
    (has "lat_count{path=\"hit\"} 2");
  Alcotest.(check bool) "prom quantile sample" true
    (has "lat{path=\"hit\",quantile=\"0.5\"}");
  Alcotest.(check bool) "prom counter sample" true
    (has "served{tenant=\"blue\"} 1");
  match M.to_json rows with
  | Sobs.Json.Arr objs ->
      Alcotest.(check int) "json row per series" 2 (List.length objs);
      let num x = Sobs.Json.Num x in
      Alcotest.(check bool) "histogram rows carry their buckets" true
        (List.filter_map
           (function
             | Sobs.Json.Obj kv -> List.assoc_opt "buckets" kv | _ -> None)
           objs
        = [
            Sobs.Json.Arr
              [ Sobs.Json.Arr [ num 2.0; num 1.0 ];
                Sobs.Json.Arr [ num 4.0; num 1.0 ] ];
          ])
  | _ -> Alcotest.fail "to_json is not an array"

let test_metrics_hammer () =
  (* hammer one counter and one histogram from 4 domains and lose
     nothing *)
  let m = M.create () in
  let h = M.histogram m "hammer.lat" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              M.bump m "hammer.count";
              H.observe h 1.0
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost counter increments" 40_000
    (M.get m "hammer.count");
  Alcotest.(check int) "no lost observations" 40_000 (H.summarize h).H.count

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "checker violations" `Quick test_check_violations;
          Alcotest.test_case "disabled path zero-alloc" `Quick
            test_disabled_zero_alloc;
          Alcotest.test_case "drop-newest at capacity" `Quick test_drop_newest;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          Alcotest.test_case "ring flag round-trips" `Quick
            test_ring_doc_roundtrip;
          Alcotest.test_case "ring check tolerance" `Quick
            test_ring_check_tolerance;
          Alcotest.test_case "epoch scoping across runs" `Quick
            test_epoch_scoping;
          Alcotest.test_case "export is failure-protected" `Quick
            test_export_protected;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "trace stable across workers 1/2/8" `Slow
            test_pipeline_trace_stability;
        ] );
      ( "hist",
        [
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "zero and negative bucket" `Quick
            test_hist_low_bucket;
          Alcotest.test_case "4-domain hammer" `Quick test_hist_hammer;
          Alcotest.test_case "empty summary well-defined" `Quick
            test_hist_empty_summary;
          Alcotest.test_case "single observation quantiles" `Quick
            test_hist_single_observation;
          Alcotest.test_case "quantiles within extremes" `Quick
            test_hist_quantiles_within_extremes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "label normalization" `Quick
            test_metrics_labels_normalized;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_metrics_kind_mismatch;
          Alcotest.test_case "histograms and exposition" `Quick
            test_metrics_histogram_and_exposition;
          Alcotest.test_case "4-domain hammer" `Quick test_metrics_hammer;
        ] );
    ]
