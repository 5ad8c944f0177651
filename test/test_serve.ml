(* Serve-mode tests: script normalization, the plan cache (hits on
   whitespace/alias-renamed variants, misses on colliding cache keys,
   invalidation on catalog bumps), cross-script sharing over combined memos with
   byte-identical outputs, the session protocol + stream generator, and
   the session loop (Sserve.Driver): its accounting, its error paths and
   a generated-stream replay, and the run-report documents
   (Sserve.Report).

   Every engine counts into its own registry, so each test reads the
   totals of the engine it built. *)

module N = Sserve.Normalize
module E = Sserve.Engine
module PC = Sserve.Plan_cache
module S = Sserve.Session
open Relalg

let plain =
  "R = EXTRACT A,B,C,D FROM \"serve_log0\" USING LogExtractor;\n\
   F = SELECT A,B,C,D FROM R WHERE D > 5;\n\
   S = SELECT A, Sum(D) AS V FROM F GROUP BY A;\n\
   OUTPUT S TO \"serve_out\" ORDER BY A;\n"

let plain_spaced =
  "  R =   EXTRACT A,B,C,D FROM \"serve_log0\" USING LogExtractor;\n\n\
   F = SELECT A,B,C,D\n FROM R WHERE D > 5;\n\
   S = SELECT A, Sum(D) AS V FROM F\n GROUP BY A;\n\
   OUTPUT S TO \"serve_out\"\n ORDER BY A;\n"

let plain_renamed =
  "Zebra = EXTRACT A,B,C,D FROM \"serve_log0\" USING LogExtractor;\n\
   Yak = SELECT A,B,C,D FROM Zebra WHERE D > 5;\n\
   Wolf = SELECT A, Sum(D) AS V FROM Yak GROUP BY A;\n\
   OUTPUT Wolf TO \"serve_out\" ORDER BY A;\n"

(* --- normalization ------------------------------------------------------- *)

let norm_text s = N.to_text (N.parse s)

let test_normalize_whitespace () =
  Alcotest.(check string) "whitespace variant normalizes equal"
    (norm_text plain) (norm_text plain_spaced)

let test_normalize_rel_names () =
  Alcotest.(check string) "relation renaming normalizes equal"
    (norm_text plain) (norm_text plain_renamed)

let test_normalize_aliases () =
  let a =
    "Raw = EXTRACT A,B,C,D FROM \"serve_log1\" USING LogExtractor;\n\
     S = SELECT u.B, Sum(u.D) AS V FROM Raw AS u WHERE u.D > 3 GROUP BY u.B;\n\
     OUTPUT S TO \"serve_alias\" ORDER BY B;\n"
  in
  let b =
    "Zt = EXTRACT A,B,C,D FROM \"serve_log1\" USING LogExtractor;\n\
     S = SELECT w.B, Sum(w.D) AS V FROM Zt AS w WHERE w.D > 3 GROUP BY w.B;\n\
     OUTPUT S TO \"serve_alias\" ORDER BY B;\n"
  in
  Alcotest.(check string) "alias renaming normalizes equal" (norm_text a)
    (norm_text b)

let test_normalize_distinguishes () =
  let other =
    "R = EXTRACT A,B,C,D FROM \"serve_log0\" USING LogExtractor;\n\
     F = SELECT A,B,C,D FROM R WHERE D > 6;\n\
     S = SELECT A, Sum(D) AS V FROM F GROUP BY A;\n\
     OUTPUT S TO \"serve_out\" ORDER BY A;\n"
  in
  Alcotest.(check bool) "different cut stays different" false
    (String.equal (norm_text plain) (norm_text other))

let test_normalize_idempotent () =
  let once = norm_text plain_renamed in
  Alcotest.(check string) "normalizing normalized text is the identity" once
    (norm_text once)

let test_normalized_text_binds () =
  (* the canonical text must still parse and bind *)
  let catalog = Sworkload.Session_gen.catalog () in
  let dag =
    Slogical.Binder.bind ~catalog (Slang.Parser.parse_script (norm_text plain))
  in
  Alcotest.(check bool) "bound dag nonempty" true (Slogical.Dag.size dag > 0)

let test_hash_string () =
  let h = Cse.Fingerprint.hash_string in
  (* [N] of fingerprint.mli: the prime 2^61 - 1. *)
  let n = (1 lsl 61) - 1 in
  Alcotest.(check bool) "in range" true (h plain >= 0 && h plain < n);
  Alcotest.(check int) "deterministic" (h plain) (h plain);
  Alcotest.(check bool) "sensitive to content" true (h plain <> h plain_spaced)

let test_combine_tags_outputs () =
  let s = N.parse plain in
  let combined = N.combine [ s; s ] in
  let outs =
    List.filter_map
      (function Slang.Ast.Output { file; _ } -> Some file | _ -> None)
      combined
  in
  Alcotest.(check (list string)) "tagged per session"
    [ "_s0:serve_out"; "_s1:serve_out" ]
    outs;
  Alcotest.(check string) "untag strips" "serve_out"
    (N.untag_output "_s0:serve_out");
  Alcotest.(check string) "untag passes plain names" "serve_out"
    (N.untag_output "serve_out");
  (* combined script must still be one well-formed parseable script *)
  let text = N.to_text combined in
  Alcotest.(check int) "reparses with all statements"
    (List.length combined)
    (List.length (Slang.Parser.parse_script text))

(* --- plan cache through the serve engine --------------------------------- *)

let fresh_engine ?workers () =
  let catalog = Sworkload.Session_gen.catalog () in
  E.create ?workers catalog

let flush_exn e =
  match E.flush e with
  | Some b -> b
  | None -> Alcotest.fail "flush returned no batch"

let table_bytes outputs =
  String.concat "\x00"
    (List.map (fun (f, t) -> f ^ "=" ^ Thelpers.table_string t) outputs)

let run_result b =
  match b.E.results with [ r ] -> r | _ -> Alcotest.fail "expected 1 result"

let assert_done ?(hit = false) r =
  match r.E.status with
  | E.Done { cache_hit; _ } ->
      Alcotest.(check bool) "cache_hit flag" hit cache_hit
  | E.Failed m -> Alcotest.failf "session %s failed: %s" r.E.id m

let test_cache_hit_identical_outputs () =
  let e = fresh_engine () in
  E.submit e ~id:"cold" ~text:plain;
  let cold = run_result (flush_exn e) in
  assert_done ~hit:false cold;
  E.submit e ~id:"dup" ~text:plain;
  E.submit e ~id:"spaced" ~text:plain_spaced;
  E.submit e ~id:"renamed" ~text:plain_renamed;
  let warm = flush_exn e in
  List.iter
    (fun r ->
      assert_done ~hit:true r;
      Alcotest.(check string)
        (r.E.id ^ " byte-identical to cold run")
        (table_bytes cold.E.outputs) (table_bytes r.E.outputs))
    warm.E.results;
  (* all four sessions share one cache entry *)
  Alcotest.(check int) "one entry" 1 (PC.size (E.cache e));
  Alcotest.(check (option int)) "same fingerprint" cold.E.fingerprint
    (List.hd warm.E.results).E.fingerprint

let test_catalog_bump_invalidates () =
  let e = fresh_engine () in
  E.submit e ~id:"a" ~text:plain;
  let r1 = run_result (flush_exn e) in
  assert_done ~hit:false r1;
  let purged = E.catalog_bump e in
  Alcotest.(check int) "entry purged" 1 purged;
  Alcotest.(check int) "cache empty" 0 (PC.size (E.cache e));
  E.submit e ~id:"b" ~text:plain;
  let r2 = run_result (flush_exn e) in
  (* same text, new statistics epoch: a miss, re-optimized *)
  assert_done ~hit:false r2;
  Alcotest.(check bool) "fingerprint changed with the epoch" true
    (r1.E.fingerprint <> r2.E.fingerprint)

let shared_pair =
  ( "R = EXTRACT A,B,C,D FROM \"serve_log2\" USING LogExtractor;\n\
     F = SELECT A,B,C,D FROM R WHERE D > 7;\n\
     S = SELECT A, Sum(D) AS V FROM F GROUP BY A;\n\
     OUTPUT S TO \"serve_xa\" ORDER BY A;\n",
    "R = EXTRACT A,B,C,D FROM \"serve_log2\" USING LogExtractor;\n\
     F = SELECT A,B,C,D FROM R WHERE D > 7;\n\
     S = SELECT B, Sum(D) AS V FROM F GROUP BY B;\n\
     OUTPUT S TO \"serve_xb\" ORDER BY B;\n" )

let test_cross_script_sharing () =
  let a, b = shared_pair in
  let e = fresh_engine () in
  E.submit e ~id:"xa" ~text:a;
  E.submit e ~id:"xb" ~text:b;
  let batch = flush_exn e in
  Alcotest.(check bool) "combined run happened" true batch.E.combined;
  Alcotest.(check bool) "cross-script spool detected" true
    (batch.E.cross_script_shares >= 1);
  (* the combined plan must beat (or match) the two solo plans *)
  (match (batch.E.combined_cost, batch.E.solo_cost_sum) with
  | Some c, Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "combined cost %.3g <= solo sum %.3g" c s)
        true (c <= s +. 1e-6)
  | _ -> Alcotest.fail "combined batch carries both cost figures");
  (* outputs byte-identical to running each script alone *)
  let solo text =
    let solo_engine = fresh_engine () in
    E.submit solo_engine ~id:"solo" ~text;
    (run_result (flush_exn solo_engine)).E.outputs
  in
  List.iter2
    (fun (r : E.session_result) reference ->
      (match r.E.status with
      | E.Done { combined; _ } ->
          Alcotest.(check bool) (r.E.id ^ " served from combined run") true
            combined
      | E.Failed m -> Alcotest.failf "%s failed: %s" r.E.id m);
      Alcotest.(check string)
        (r.E.id ^ " byte-identical to solo run")
        (table_bytes reference) (table_bytes r.E.outputs))
    batch.E.results
    [ solo a; solo b ]

(* A combined run that exhausts its recovery budget raises out of
   [flush], as [Engine.create] documents; it must not fall back to solo
   runs and return normally.  At this rate, seed 3 exhausts a stage of
   the combined run. *)
let test_combined_exhaustion_propagates () =
  let a, b = shared_pair in
  let e =
    E.create
      ~faults:(Sexec.Faults.spec ~rate:0.6 ~max_attempts:2 3)
      (Sworkload.Session_gen.catalog ())
  in
  E.submit e ~id:"xa" ~text:a;
  E.submit e ~id:"xb" ~text:b;
  match E.flush e with
  | exception Sexec.Scheduler.Recovery_exhausted _ -> ()
  | Some batch ->
      Alcotest.failf "flush returned normally (combined = %b)"
        batch.E.combined
  | None -> Alcotest.fail "flush returned no batch"

(* Two scripts whose cache keys collide: the file names are equal-length
   strings with the same polynomial hash, and a common prefix and suffix
   keep them colliding.  A hit must be verified against the entry's
   normalized text, so the second script is a miss with its own plan. *)
let collision_pair =
  let script name =
    Printf.sprintf
      "R = EXTRACT A,B,C,D FROM \"%s.log\" USING LogExtractor;\n\
       OUTPUT R TO \"collide_out\";\n"
      name
  in
  (script "PPPPPPPPPPPPPPPPPPPPPPPP", script "MPRSPNSOOQSQPQQSSNPPPPMQ")

let test_key_collision_is_a_miss () =
  let a, b = collision_pair in
  let key s = PC.key ~catalog_version:0 (norm_text s) in
  Alcotest.(check bool) "normalized texts differ" false
    (String.equal (norm_text a) (norm_text b));
  Alcotest.(check int) "cache keys collide" (key a) (key b);
  let e = fresh_engine () in
  E.submit e ~id:"a" ~text:a;
  E.submit e ~id:"b" ~text:b;
  let batch = flush_exn e in
  let solo text =
    let solo_engine = fresh_engine () in
    E.submit solo_engine ~id:"solo" ~text;
    (run_result (flush_exn solo_engine)).E.outputs
  in
  (match batch.E.results with
  | [ ra; rb ] ->
      assert_done ~hit:false ra;
      assert_done ~hit:false rb;
      Alcotest.(check string) "a's outputs equal its solo run"
        (table_bytes (solo a)) (table_bytes ra.E.outputs);
      Alcotest.(check string) "b's outputs equal its solo run"
        (table_bytes (solo b)) (table_bytes rb.E.outputs)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "two cache entries" 2 (PC.size (E.cache e));
  Alcotest.(check int) "each entry reported once"
    (if batch.E.combined then 3 else 2)
    (List.length batch.E.reports)

let test_within_batch_duplicate () =
  let e = fresh_engine () in
  E.submit e ~id:"first" ~text:plain;
  E.submit e ~id:"second" ~text:plain_renamed;
  let batch = flush_exn e in
  (* one miss, one within-batch duplicate: no combined run of one *)
  Alcotest.(check bool) "no combined run" false batch.E.combined;
  (match batch.E.results with
  | [ a; b ] ->
      assert_done ~hit:false a;
      assert_done ~hit:true b;
      Alcotest.(check string) "identical outputs" (table_bytes a.E.outputs)
        (table_bytes b.E.outputs)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "one cache entry" 1 (PC.size (E.cache e))

let test_failed_session_contained () =
  let e = fresh_engine () in
  E.submit e ~id:"bad" ~text:"THIS IS NOT A SCRIPT";
  E.submit e ~id:"good" ~text:plain;
  let batch = flush_exn e in
  match batch.E.results with
  | [ bad; good ] ->
      (match bad.E.status with
      | E.Failed _ -> ()
      | E.Done _ -> Alcotest.fail "malformed script must fail");
      assert_done ~hit:false good;
      Alcotest.(check bool) "good session produced rows" true (good.E.rows > 0)
  | _ -> Alcotest.fail "expected two results"

(* --- session protocol ---------------------------------------------------- *)

let test_protocol_parse () =
  let items =
    S.items_of_string
      "## comment\n\
       #script s1\n\
       A = EXTRACT A FROM \"f\" USING X;\n\
       #end\n\n\
       #batch\n\
       #catalog-bump\n\
       #quit\n"
  in
  match items with
  | [ S.Script { id; text }; S.Flush; S.Catalog_bump; S.Quit ] ->
      Alcotest.(check string) "id" "s1" id;
      Alcotest.(check string) "text" "A = EXTRACT A FROM \"f\" USING X;\n" text
  | _ -> Alcotest.failf "unexpected items (%d)" (List.length items)

let test_protocol_errors () =
  let raises s =
    match S.items_of_string s with
    | exception S.Protocol_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed stream %S" s
  in
  raises "#script s1\nno end";
  raises "#script\nx\n#end\n";
  raises "#bogus\n";
  raises "stray text\n";
  raises "#tenant\n";
  raises "#tenant   \n"

let test_protocol_observability_verbs () =
  match S.items_of_string "#tenant acme\n#stats\n#dump\n#quit\n" with
  | [ S.Tenant t; S.Stats; S.Dump; S.Quit ] ->
      Alcotest.(check string) "tenant name" "acme" t
  | items -> Alcotest.failf "unexpected items (%d)" (List.length items)

(* --- the per-engine metrics registry and SA046 --------------------------- *)

let metric_rows e = Sobs.Metrics.snapshot (E.metrics e)

let count rows name labels =
  match
    List.find_opt
      (fun (r : Sobs.Metrics.row) ->
        r.Sobs.Metrics.name = name && r.Sobs.Metrics.labels = labels)
      rows
  with
  | Some { Sobs.Metrics.value = Sobs.Metrics.Count c; _ } -> c
  | _ -> 0

let hist_count rows name labels =
  match
    List.find_opt
      (fun (r : Sobs.Metrics.row) ->
        r.Sobs.Metrics.name = name && r.Sobs.Metrics.labels = labels)
      rows
  with
  | Some { Sobs.Metrics.value = Sobs.Metrics.Dist s; _ } -> s.Sobs.Hist.count
  | _ -> -1

(* Drive every session path once — miss, hit, failure, combined share —
   under two tenants, then hold the registry to its accounting story:
   every served session in exactly one latency path, hits+misses
   covering submitted-failed, tenant traffic attributed, and the SA046
   audit finding nothing. *)
let test_metrics_accounting () =
  let a, b = shared_pair in
  let e = fresh_engine () in
  E.submit e ~id:"cold" ~text:plain;
  ignore (flush_exn e);
  E.submit ~tenant:"blue" e ~id:"dup" ~text:plain;
  E.submit ~tenant:"blue" e ~id:"bad" ~text:"THIS IS NOT A SCRIPT";
  ignore (flush_exn e);
  E.submit e ~id:"xa" ~text:a;
  E.submit e ~id:"xb" ~text:b;
  ignore (flush_exn e);
  let rows = metric_rows e in
  Alcotest.(check int) "submitted" 5 (count rows "serve.sessions_submitted" []);
  Alcotest.(check int) "failed" 1 (count rows "serve.sessions_failed" []);
  Alcotest.(check int) "hits" 1 (count rows "serve.cache_hits" []);
  Alcotest.(check int) "misses" 3 (count rows "serve.cache_misses" []);
  Alcotest.(check int) "hit-path latency observations" 1
    (hist_count rows "serve.session_seconds" [ ("path", "hit") ]);
  Alcotest.(check int) "share-path latency observations" 2
    (hist_count rows "serve.session_seconds" [ ("path", "share") ]);
  Alcotest.(check int) "miss-path latency observations" 1
    (hist_count rows "serve.session_seconds" [ ("path", "miss") ]);
  Alcotest.(check int) "blue tenant submitted" 2
    (count rows "serve.tenant_submitted" [ ("tenant", "blue") ]);
  Alcotest.(check int) "blue tenant served" 1
    (count rows "serve.tenant_served" [ ("tenant", "blue") ]);
  Alcotest.(check int) "default tenant submitted" 3
    (count rows "serve.tenant_submitted" [ ("tenant", "default") ]);
  Alcotest.(check bool) "served rows attributed" true
    (count rows "serve.tenant_rows" [ ("tenant", "default") ] > 0);
  (match
     List.find_opt
       (fun (r : Sobs.Metrics.row) ->
         r.Sobs.Metrics.name = "serve.cache_size")
       rows
   with
  | Some { Sobs.Metrics.value = Sobs.Metrics.Value v; _ } ->
      Alcotest.(check (float 0.0)) "cache_size gauge tracks the cache"
        (float_of_int (PC.size (E.cache e)))
        v
  | _ -> Alcotest.fail "no serve.cache_size gauge");
  Alcotest.(check string) "SA046 clean" "0 error(s), 0 warning(s)\n"
    (Fmt.str "%a" Sanalysis.Diag.pp_report
       (Sanalysis.Serve_audit.run ~cache_entries:(PC.size (E.cache e)) rows))

(* The serve engine records into its executor's registry: after a few
   flushes the registry holds exec.stage_seconds with one observation per
   stage the flushes ran, as the batches' exec.stages_run counters sum. *)
let test_metrics_include_executor () =
  let a, b = shared_pair in
  let e = fresh_engine () in
  let batches =
    List.map
      (fun subs ->
        List.iter (fun (id, text) -> E.submit e ~id ~text) subs;
        flush_exn e)
      [ [ ("cold", plain) ]; [ ("dup", plain) ]; [ ("xa", a); ("xb", b) ] ]
  in
  let stages =
    List.fold_left
      (fun acc (bt : E.batch_result) ->
        acc
        + Option.value ~default:0
            (List.assoc_opt "exec.stages_run" bt.E.counters))
      0 batches
  in
  Alcotest.(check bool) "stages ran" true (stages > 0);
  Alcotest.(check int) "exec.stage_seconds counts every stage" stages
    (hist_count (metric_rows e) "exec.stage_seconds" [])

let test_generator_stream () =
  let stream = Sworkload.Session_gen.generate ~seed:3 ~scripts:8 () in
  let items = S.items_of_string stream in
  let scripts =
    List.filter_map
      (function S.Script { text; _ } -> Some text | _ -> None)
      items
  in
  Alcotest.(check int) "requested scripts" 8 (List.length scripts);
  (* every generated script parses *)
  List.iter (fun t -> ignore (Slang.Parser.parse_script t)) scripts;
  Alcotest.(check bool) "has batch breaks" true
    (List.exists (function S.Flush -> true | _ -> false) items)

(* --- the session loop ----------------------------------------------------- *)

(* Run the session loop over a protocol stream on [e]; returns the
   loop's result and its narration. *)
let drive ?stats_file e stream =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let r =
    Sserve.Driver.run ~out:ppf ~err:ppf ?stats_file e
      ~next:(S.of_string stream)
  in
  Format.pp_print_flush ppf ();
  (r, Buffer.contents buf)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let block id text = "#script " ^ id ^ "\n" ^ text ^ "#end\n"

let total e name = List.assoc name (E.totals e)
let totals e names = List.map (total e) names

let test_driver_miss_count () =
  (* a bind failure is not a cache miss: the serve line and the SA046
     registry tell the same story, and a second engine in the process
     sees only its own sessions *)
  let e = fresh_engine () in
  let r, narration =
    drive e
      (block "good" plain ^ block "bad" "OUTPUT Nope TO \"serve_unbound\";\n")
  in
  Alcotest.(check bool) "a failed session fails the run" true
    (Result.is_error r);
  Alcotest.(check (list int)) "two sessions, no hit, one miss" [ 2; 0; 1 ]
    (totals e [ "sessions"; "cache_hits"; "cache_misses" ]);
  Alcotest.(check int) "hits + misses = submitted - failed"
    (count (metric_rows e) "serve.sessions_submitted" []
    - count (metric_rows e) "serve.sessions_failed" [])
    (List.fold_left ( + ) 0 (totals e [ "cache_hits"; "cache_misses" ]));
  Alcotest.(check bool) "serve line shows one miss" true
    (contains narration "cache_misses=1 ");
  let other = fresh_engine () in
  let r, _ = drive other (block "dup" plain ^ block "dup2" plain) in
  Alcotest.(check bool) "second engine serves cleanly" true (Result.is_ok r);
  Alcotest.(check (list int)) "second engine counts only its own sessions"
    [ 2; 1; 1; 1 ]
    (totals other [ "sessions"; "batches"; "cache_hits"; "cache_misses" ]);
  Alcotest.(check (list int)) "first engine unchanged" [ 2 ]
    (totals e [ "sessions" ])

let test_driver_protocol_error () =
  (* a protocol error after an accepted script: the script still runs and
     is narrated, the stats file is written, then the error returns *)
  let stats_file = Filename.temp_file "serve-stats" ".json" in
  let e = fresh_engine () in
  let r, narration = drive ~stats_file e (block "good" plain ^ "#bogus\n") in
  let written = In_channel.with_open_text stats_file In_channel.input_all in
  Sys.remove stats_file;
  Alcotest.(check (result unit string)) "protocol error returned"
    (Error "unknown directive \"#bogus\"")
    (Result.map_error (fun (`Msg m) -> m) r);
  Alcotest.(check (list int)) "accepted script flushed" [ 1; 1 ]
    (totals e [ "sessions"; "batches" ]);
  Alcotest.(check bool) "accepted script narrated" true
    (contains narration "batch 1: good cache miss");
  Alcotest.(check bool) "stats written" true
    (contains written "serve.sessions_submitted")

let test_driver_unwritable_stats () =
  let stats_file =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "no-such-serve-dir")
      "stats.json"
  in
  let e = fresh_engine () in
  let r, _ =
    drive ~stats_file e (block "a" plain ^ "#batch\n" ^ block "b" plain)
  in
  (match r with
  | Error (`Msg m) ->
      Alcotest.(check bool) ("names the stats file: " ^ m) true
        (contains m "stats file")
  | Ok () -> Alcotest.fail "an unwritable stats file must fail the run");
  Alcotest.(check (list int)) "serving went on" [ 2; 2 ]
    (totals e [ "sessions"; "batches" ])

let test_generator_replay () =
  (* run a small generated stream end to end: the prelude guarantees
     cache hits and at least one cross-script share at any seed *)
  let e = fresh_engine () in
  let r, _ = drive e (Sworkload.Session_gen.generate ~seed:11 ~scripts:7 ()) in
  (* [Ok] also means no failed session and a clean SA046 audit *)
  Alcotest.(check bool) "replay succeeds" true (Result.is_ok r);
  Alcotest.(check bool) "cache hits happened" true
    (total e "cache_hits" >= 2);
  Alcotest.(check bool) "cross-script sharing happened" true
    (total e "cross_script_shares" >= 1)

(* --- the run report --------------------------------------------------------- *)

let member_path doc path =
  List.fold_left
    (fun v key -> Option.bind v (Sobs.Json.member key))
    (Some doc) path

let num_at doc path =
  match Option.bind (member_path doc path) Sobs.Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "no number at %s" (String.concat "." path)

let test_run_report () =
  (* S1 optimized, executed and reported: the document re-parses, its
     optimization figures are the pipeline report's bit for bit, and its
     counters are the pipeline's plus the executor's *)
  let catalog = Catalog.default () in
  let r = Cse.Pipeline.run ~catalog Sworkload.Paper_scripts.s1 in
  let v =
    Sexec.Validate.check ~workers:2 ~machines:25 catalog r.Cse.Pipeline.dag
      r.Cse.Pipeline.cse_plan
  in
  let doc = Sserve.Report.run ~machines:25 ~exec:v r in
  let parsed = Sobs.Json.parse (Sobs.Json.to_string doc) in
  Alcotest.(check bool) "round-trips through the parser" true (parsed = doc);
  Alcotest.(check (option string)) "schema" (Some "scopecse-run-report/6")
    (Option.bind (Sobs.Json.member "schema" parsed) Sobs.Json.to_str);
  let opt name = num_at parsed [ "optimization"; name ] in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) ("optimization." ^ name ^ " bit for bit") true
        (Int64.equal (Int64.bits_of_float (opt name))
           (Int64.bits_of_float expected)))
    [
      ("conventional_cost", r.Cse.Pipeline.conventional_cost);
      ("cse_cost", r.Cse.Pipeline.cse_cost);
      ("cost_ratio", Cse.Pipeline.ratio r);
      ("conventional_time_s", r.Cse.Pipeline.conventional_time);
      ("cse_time_s", r.Cse.Pipeline.cse_time);
      ("conventional_tasks", float_of_int r.Cse.Pipeline.conventional_tasks);
      ("cse_tasks", float_of_int r.Cse.Pipeline.cse_tasks);
      ("rounds_executed", float_of_int r.Cse.Pipeline.rounds_executed);
      ("rounds_pruned", float_of_int r.Cse.Pipeline.rounds_pruned);
      ( "rounds_aborted_bound",
        float_of_int r.Cse.Pipeline.rounds_aborted_bound );
      ( "phase2_winner_reuse_hits",
        float_of_int r.Cse.Pipeline.phase2_winner_reuse_hits );
    ];
  let counters =
    match member_path parsed [ "counters" ] with
    | Some (Sobs.Json.Obj fields) ->
        List.map
          (fun (name, n) ->
            (name, int_of_float (Option.get (Sobs.Json.to_float n))))
          fields
    | _ -> Alcotest.fail "no counters object"
  in
  Alcotest.(check (list (pair string int)))
    "pipeline counters plus the executor's"
    (List.sort compare
       (List.filter
          (fun (_, n) -> n <> 0)
          (r.Cse.Pipeline.counters
          @ Sexec.Engine.named_counters v.Sexec.Validate.engine.Sexec.Engine.counters)))
    counters;
  Alcotest.(check bool) "execution section" true
    (member_path parsed [ "execution"; "stages" ] <> None);
  (* without execution: optimization and the pipeline's counters only *)
  let opt_only = Sserve.Report.run ~machines:25 r in
  Alcotest.(check (list string)) "optimize-only sections"
    [ "schema"; "machines"; "optimization"; "counters" ]
    (match opt_only with
    | Sobs.Json.Obj fields -> List.map fst fields
    | _ -> [])

(* More workers than cores: the executor runs a pool as wide as the host,
   and the report gives that width, one busy slot per pool worker. *)
let test_run_report_pool_width () =
  let catalog = Catalog.default () in
  let r = Cse.Pipeline.run ~catalog Sworkload.Paper_scripts.s1 in
  let cores = Domain.recommended_domain_count () in
  let v =
    Sexec.Validate.check ~workers:(cores + 2) ~machines:25 catalog
      r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan
  in
  let doc = Sserve.Report.run ~machines:25 ~exec:v r in
  let busy =
    match member_path doc [ "execution"; "busy_s" ] with
    | Some (Sobs.Json.Arr slots) -> List.length slots
    | _ -> Alcotest.fail "no execution.busy_s array"
  in
  Alcotest.(check int) "workers = busy slots" busy
    (int_of_float (num_at doc [ "execution"; "workers" ]));
  Alcotest.(check bool) "pool capped at the cores" true (busy <= cores)

let test_serve_report () =
  let e = fresh_engine () in
  let buf = Buffer.create 1024 in
  let out = Format.formatter_of_buffer buf in
  let err = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let r =
    Sserve.Driver.run ~out ~err ~json:true e
      ~next:(S.of_string (block "a" plain ^ "#batch\n" ^ block "b" plain))
  in
  Format.pp_print_flush out ();
  Alcotest.(check bool) "serve succeeds" true (Result.is_ok r);
  let doc = Sobs.Json.parse (Buffer.contents buf) in
  Alcotest.(check (option string)) "schema" (Some "scopecse-run-report/6")
    (Option.bind (Sobs.Json.member "schema" doc) Sobs.Json.to_str);
  Alcotest.(check (float 0.0)) "serve section totals" 1.0
    (num_at doc [ "serve"; "cache_hits" ]);
  Alcotest.(check int) "one entry per batch" 2
    (List.length
       (Option.value ~default:[]
          (Option.bind
             (member_path doc [ "serve"; "batches_detail" ])
             Sobs.Json.to_list)))

let () =
  Alcotest.run "serve"
    [
      ( "normalize",
        [
          Alcotest.test_case "whitespace" `Quick test_normalize_whitespace;
          Alcotest.test_case "relation names" `Quick test_normalize_rel_names;
          Alcotest.test_case "aliases" `Quick test_normalize_aliases;
          Alcotest.test_case "distinguishes" `Quick
            test_normalize_distinguishes;
          Alcotest.test_case "idempotent" `Quick test_normalize_idempotent;
          Alcotest.test_case "binds" `Quick test_normalized_text_binds;
          Alcotest.test_case "hash_string" `Quick test_hash_string;
          Alcotest.test_case "combine tags outputs" `Quick
            test_combine_tags_outputs;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit is byte-identical" `Quick
            test_cache_hit_identical_outputs;
          Alcotest.test_case "catalog bump invalidates" `Quick
            test_catalog_bump_invalidates;
          Alcotest.test_case "key collision is a miss" `Quick
            test_key_collision_is_a_miss;
          Alcotest.test_case "within-batch duplicate" `Quick
            test_within_batch_duplicate;
          Alcotest.test_case "failed session contained" `Quick
            test_failed_session_contained;
        ] );
      ( "cross-script",
        [
          Alcotest.test_case "sharing and byte-identity" `Quick
            test_cross_script_sharing;
          Alcotest.test_case "combined-run exhaustion propagates" `Quick
            test_combined_exhaustion_propagates;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          Alcotest.test_case "observability verbs" `Quick
            test_protocol_observability_verbs;
          Alcotest.test_case "generator stream" `Quick test_generator_stream;
          Alcotest.test_case "generator replay" `Quick test_generator_replay;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "accounting and SA046" `Quick
            test_metrics_accounting;
          Alcotest.test_case "executor series in the engine registry" `Quick
            test_metrics_include_executor;
        ] );
      ( "driver",
        [
          Alcotest.test_case "bind failure is not a miss" `Quick
            test_driver_miss_count;
          Alcotest.test_case "protocol error keeps accepted scripts" `Quick
            test_driver_protocol_error;
          Alcotest.test_case "unwritable stats file" `Quick
            test_driver_unwritable_stats;
        ] );
      ( "report",
        [
          Alcotest.test_case "run report matches the pipeline" `Quick
            test_run_report;
          Alcotest.test_case "run report gives the pool width that ran" `Quick
            test_run_report_pool_width;
          Alcotest.test_case "serve document" `Quick test_serve_report;
        ] );
    ]
