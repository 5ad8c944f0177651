(* scopeopt: command-line driver for the CSE-aware SCOPE-like optimizer.

   Subcommands:
     parse       - parse a script and print its AST
     explain     - print the logical DAG and the memo with shared groups
     optimize    - run both optimizers and print plans, costs and statistics
     run         - optimize, execute on the simulated cluster, show outputs
     serve       - long-running engine over a stream of script submissions,
                   with a normalized-text plan cache and cross-script CSE
     check-trace - validate a Chrome trace file written by --trace
     lint        - optimize, then run the full static-analysis audit
     workload    - print a built-in workload script (S1-S4, IND, LS1, LS2)

   Scripts are read from a file argument or, via --builtin, from the
   workload registry Sworkload.Builtin.  [optimize] and [run] accept
   --audit to run the same audit as [lint] after printing their reports,
   --trace to record the whole pipeline as Chrome trace-event JSON
   (Perfetto), and --json to print the run report (Sserve.Report). *)

open Cmdliner

(* The contents of a file named on the command line.  cmdliner's [file]
   converter only checks that the path exists, so a directory or an
   unreadable file is a one-line CLI error here. *)
let read_file f =
  match In_channel.with_open_bin f In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg ->
      Error
        (`Msg (if String.starts_with ~prefix:f msg then msg else f ^ ": " ^ msg))

(* The script to run and a fresh catalog for it: a builtin's from the
   workload registry, a file's from the registry's text catalog. *)
let read_script file builtin =
  match (file, builtin) with
  | Some f, None ->
      Result.map (fun s -> (s, Sworkload.Builtin.text_catalog s)) (read_file f)
  | None, Some name -> (
      match Sworkload.Builtin.find name with
      | Some w -> Ok (w.script, w.catalog ())
      | None -> Error (`Msg (Printf.sprintf "unknown builtin workload %S" name)))
  | Some _, Some _ -> Error (`Msg "give either a file or --builtin, not both")
  | None, None -> Error (`Msg "give a script file or --builtin NAME")

(* --- common arguments -------------------------------------------------- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file.")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "builtin"; "b" ] ~docv:"NAME"
        ~doc:("Built-in workload: " ^ Sworkload.Builtin.names ^ "."))

let machines_arg =
  Arg.(
    value & opt int 25
    & info [ "machines"; "m" ] ~docv:"N" ~doc:"Simulated cluster size.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS" ~doc:"Optimization time budget.")

let no_ext_arg =
  Arg.(
    value & flag
    & info [ "no-extensions" ]
        ~doc:"Disable the Section VIII large-script extensions.")

let no_prune_arg =
  Arg.(
    value & flag
    & info [ "no-prune" ]
        ~doc:
          "Disable the two phase-2 round-pruning layers (dominance \
           filtering, branch-and-bound round aborts) and enumerate every \
           round exhaustively.  The chosen plan is \
           identical either way; this is the ablation baseline the \
           equivalence tests and CI drift gate compare against.")

(* Base optimizer configuration from the shared CLI flags. *)
let base_config ~no_ext ~no_prune =
  let c = if no_ext then Cse.Config.no_extensions else Cse.Config.default in
  if no_prune then Cse.Config.no_pruning c else c

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"PREFIX"
        ~doc:
          "Write Graphviz renderings of both plans to \
           $(docv)-conventional.dot and $(docv)-cse.dot.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:"Log re-optimization rounds and phase summaries to stderr.")

let inject_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject-faults" ] ~docv:"SEED"
        ~doc:
          "With $(b,run): execute a second time under deterministic fault \
           injection seeded with $(docv), recover by recomputing lost \
           stages, and require the outputs to be byte-identical to the \
           fault-free run.")

let rate_arg =
  Arg.(
    value & opt float 0.15
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Per-stage-completion fault probability for --inject-faults, in \
           [0, 1).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:
          "Executor domain-pool width for $(b,run): independent stages and \
           per-machine vertex loops execute on $(docv) OCaml domains.  \
           Outputs and fault/retry counters are identical for every value; \
           only wall time changes.")

let batch_size_arg =
  Arg.(
    value
    & opt int Sexec.Engine.default_batch_size
    & info [ "batch-size" ] ~docv:"N"
        ~doc:
          "Columnar batch granularity of the executor: stage outputs are \
           chunked into batches of at most $(docv) rows.  Outputs and \
           fault/retry counters are identical for every value; only wall \
           time and the batch counters change.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the whole pipeline (optimization phases, stage-graph \
           construction, per-stage execution spans across worker domains) \
           as Chrome trace-event JSON into $(docv); load it at \
           ui.perfetto.dev.  Executed stages are cross-checked against \
           the trace (SA045).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile-kernels" ]
        ~doc:
          "Record per-kernel batch-processing time histograms \
           (exec.kernel_seconds, labeled by kernel and stage) during \
           execution.  Off by default: the disabled path is a single \
           atomic load per kernel invocation and outputs are \
           byte-identical either way.")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "After optimizing, run the full static-analysis audit — the \
           per-layer passes (memo, sharing, logical-DAG, plan-DAG, stage \
           graph) plus the deep cross-layer SA05x passes (semantic \
           equivalence, column lineage, stage interference) — and fail on \
           any error-severity diagnostic.")

(* Run every analyzer pass over a finished pipeline report; returns the
   exit code from the diagnostic severity mapping. *)
let run_audit ?(ppf = Fmt.stdout) ~deep ~strict ~cluster ~catalog r =
  let diags = Sanalysis.Audit.report ~deep ~cluster ~catalog r in
  if diags = [] then Fmt.pf ppf "audit clean: no diagnostics@."
  else Fmt.pf ppf "%a" Sanalysis.Diag.pp_report diags;
  Fmt.pf ppf "%a" Sanalysis.Diag.pp_summary diags;
  let fail_on =
    if strict then Sanalysis.Diag.Warning else Sanalysis.Diag.Error
  in
  Sanalysis.Diag.exit_code ~fail_on diags

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* Map the frontend's exceptions, and a fault-injected run whose
   recovery ran out of attempts, to cmdliner error messages so the command
   exits with a one-line diagnostic instead of a backtrace. *)
let guard f script =
  match f script with
  | r -> r
  | exception Slang.Parser.Error (msg, _) -> Error (`Msg msg)
  | exception Slang.Lexer.Error (msg, _) -> Error (`Msg msg)
  | exception Slogical.Binder.Error msg -> Error (`Msg msg)
  | exception Cse.Pipeline.No_plan msg -> Error (`Msg msg)
  | exception Sexec.Scheduler.Recovery_exhausted { stage; attempts } ->
      Error
        (`Msg
          (Printf.sprintf
             "fault recovery exhausted: stage %d used up its attempt budget \
              after %d attempt(s)"
             stage attempts))

let with_script f =
  Term.(
    const (fun file builtin -> Result.bind (read_script file builtin) (guard f))
    $ file_arg $ builtin_arg)

(* --- parse ------------------------------------------------------------- *)

let parse_cmd =
  let run file builtin =
    Result.bind (read_script file builtin) (fun (script, _) ->
        match Slang.Parser.parse_script script with
        | ast ->
            Fmt.pr "%a@." Slang.Ast.pp ast;
            Ok ()
        | exception Slang.Parser.Error (msg, _) -> Error (`Msg msg)
        | exception Slang.Lexer.Error (msg, _) -> Error (`Msg msg))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a script and print the AST")
    Term.(term_result (const run $ file_arg $ builtin_arg))

(* --- explain ----------------------------------------------------------- *)

let explain_cmd =
  let f (script, catalog) =
    let ast = Slang.Parser.parse_script script in
    let dag = Slogical.Binder.bind ~catalog ast in
    Fmt.pr "=== logical operator DAG (%d operators) ===@.%a@."
      (Slogical.Dag.size dag) Slogical.Dag.pp dag;
    let memo = Smemo.Memo.of_dag ~catalog ~machines:25 dag in
    let shared = Cse.Spool.identify memo in
    Fmt.pr "=== memo after Algorithm 1 ===@.%a@." Smemo.Memo.pp memo;
    Fmt.pr "shared groups:@.";
    List.iter
      (fun (s : Cse.Spool.shared) ->
        Fmt.pr "  spool %d over group %d, %d consumers@." s.Cse.Spool.spool
          s.Cse.Spool.under s.Cse.Spool.initial_consumers)
      shared;
    Ok ()
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Print the logical DAG and the memo")
    Term.(term_result (with_script f))

(* --- optimize ---------------------------------------------------------- *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the run report as JSON on stdout and move all narration \
           to stderr.  $(b,optimize) reports the optimization and its \
           counters; $(b,run) adds the fault-free execution and the \
           executor's metrics; $(b,serve) reports the serve totals, every \
           batch and the engine's metrics.")

let optimize run_exec =
  let f machines budget no_ext no_prune verbose audit json dot inject rate
      workers batch_size trace profile (script, catalog) =
    setup_logs verbose;
    Sexec.Profile.set profile;
    if trace <> None then Sobs.Trace.start ();
    (* under --json, stdout carries only the document *)
    let ppf = if json then Fmt.stderr else Fmt.stdout in
    let say fmt = Fmt.pf ppf fmt in
    let attempts_acc = ref [] in
    let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
    let config = base_config ~no_ext ~no_prune in
    let budget = Option.map (fun s -> Sopt.Budget.create ~max_seconds:s ()) budget in
    let r = Cse.Pipeline.run ~config ?budget ~cluster ~catalog script in
    say "=== conventional plan (estimated cost %.5g; %.3f s) ===@.%a@."
      r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.conventional_time
      Sphys.Plan_pp.pp r.Cse.Pipeline.conventional_plan;
    say
      "=== CSE plan (estimated cost %.5g; %.3f s; %d rounds over %d shared \
       groups) ===@.%a@."
      r.Cse.Pipeline.cse_cost r.Cse.Pipeline.cse_time
      r.Cse.Pipeline.rounds_executed
      (List.length r.Cse.Pipeline.shared)
      Sphys.Plan_pp.pp r.Cse.Pipeline.cse_plan;
    say "cost ratio %.1f%% (a reduction of %.1f%%)@.@."
      (100.0 *. Cse.Pipeline.ratio r)
      (Cse.Pipeline.reduction_percent r);
    say "%a" Cse.Pipeline.pp_steps r;
    Option.iter
      (fun prefix ->
        let write suffix plan =
          let file = prefix ^ "-" ^ suffix ^ ".dot" in
          Sobs.Flight.write_file file (Sphys.Plan_pp.to_dot ~name:suffix plan);
          say "wrote %s@." file
        in
        write "conventional" r.Cse.Pipeline.conventional_plan;
        write "cse" r.Cse.Pipeline.cse_plan)
      dot;
    let print_report exec =
      if json then
        print_string
          (Sobs.Json.to_string (Sserve.Report.run ~machines ?exec r))
    in
    let exec_result =
      if not run_exec then begin
        print_report None;
        Ok ()
      end
      else begin
        (* each run's executor registry: its kernel rows under
           --profile-kernels *)
        let print_profile (e : Sexec.Engine.t) =
          if profile then
            say "%s"
              (Sobs.Metrics.to_prom
                 (Sobs.Metrics.snapshot e.Sexec.Engine.metrics))
        in
        let v =
          Sexec.Validate.check ~verify_props:true ~workers ~batch_size
            ~machines catalog r.Cse.Pipeline.dag r.Cse.Pipeline.cse_plan
        in
        let e = v.Sexec.Validate.engine in
        let c = e.Sexec.Engine.counters in
        attempts_acc := !attempts_acc @ [ e.Sexec.Engine.last_attempts ];
        say
          "execution: results %s; %d rows shuffled, %d rows extracted, shared \
           results materialized %d time(s), read %d time(s)@."
          (if v.Sexec.Validate.ok then
             "match the reference (delivered properties verified)"
           else "MISMATCH")
          c.Sexec.Engine.rows_shuffled c.Sexec.Engine.rows_extracted
          c.Sexec.Engine.spool_executions c.Sexec.Engine.spool_reads;
        say "staged: %d stage(s), %d vertex executions@."
          c.Sexec.Engine.stages_run c.Sexec.Engine.vertices_run;
        say "%a" Cse.Pipeline.pp_exec (Sserve.Engine.exec_summary e);
        List.iter (fun m -> say "  %s@." m) v.Sexec.Validate.mismatches;
        print_profile e;
        (* the document describes the fault-free run *)
        print_report (Some v);
        let injected =
          match inject with
          | None -> Ok ()
          | Some seed -> (
              match Sexec.Faults.spec ~rate seed with
              | exception Invalid_argument msg -> Error (`Msg msg)
              | faults ->
                  let vf =
                    Sexec.Validate.check ~verify_props:true ~faults ~workers
                      ~batch_size ~machines catalog r.Cse.Pipeline.dag
                      r.Cse.Pipeline.cse_plan
                  in
                  let ef = vf.Sexec.Validate.engine in
                  attempts_acc := !attempts_acc @ [ ef.Sexec.Engine.last_attempts ];
                  let identical =
                    Sexec.Validate.identical_outputs v.Sexec.Validate.outputs
                      vf.Sexec.Validate.outputs
                  in
                  say
                    "fault injection (seed %d, rate %.2f): outputs %s the \
                     fault-free run%s@."
                    seed rate
                    (if identical then "byte-identical to" else "DIVERGE from")
                    (if vf.Sexec.Validate.ok then ""
                     else "; reference MISMATCH");
                  say "%a" Cse.Pipeline.pp_counters
                    (Sexec.Engine.named_counters ef.Sexec.Engine.counters);
                  say "stage attempts: %s@."
                    (String.concat ","
                       (Array.to_list
                          (Array.map string_of_int ef.Sexec.Engine.last_attempts)));
                  List.iter (fun m -> say "  %s@." m)
                    vf.Sexec.Validate.mismatches;
                  print_profile ef;
                  if vf.Sexec.Validate.ok && identical then Ok ()
                  else Error (`Msg "fault-injected execution diverged"))
        in
        if not v.Sexec.Validate.ok then Error (`Msg "execution mismatch")
        else injected
      end
    in
    let trace_result =
      match trace with
      | None -> Ok ()
      | Some path ->
          Sanalysis.Trace_audit.finish ~ppf ~attempts:!attempts_acc path
    in
    match exec_result with
    | Error _ as e -> e
    | Ok () -> (
        match trace_result with
        | Error _ as e -> e
        | Ok () ->
            if audit then begin
              let code =
                run_audit ~ppf ~deep:true ~strict:false ~cluster ~catalog r
              in
              if code <> 0 then Error (`Msg "audit found errors") else Ok ()
            end
            else Ok ())
  in
  Term.(
    term_result
      (const (fun m b e np v a j d i p w bs t pk file builtin ->
           Result.bind (read_script file builtin)
             (guard (f m b e np v a j d i p w bs t pk)))
      $ machines_arg $ budget_arg $ no_ext_arg $ no_prune_arg $ verbose_arg
      $ audit_arg $ json_arg $ dot_arg $ inject_arg $ rate_arg $ workers_arg
      $ batch_size_arg $ trace_arg $ profile_arg $ file_arg $ builtin_arg))

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Optimize a script with and without the CSE framework")
    (optimize false)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Optimize and execute on the simulated cluster, validating results")
    (optimize true)

(* --- serve -------------------------------------------------------------- *)

(* The long-running multi-script engine: the flags below, the engine
   they configure and the stream they choose (a file, stdin or --gen);
   Sserve.Driver runs the session loop. *)
let serve_cmd =
  let gen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen" ] ~docv:"N"
          ~doc:
            "Generate a session stream of $(docv) scripts with the built-in \
             generator instead of reading one (duplicates, alias-renamed \
             variants, batched shared-scan pairs, one catalog bump).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed for --gen.")
  in
  let trace_prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PREFIX"
          ~doc:
            "Record each batch in its own trace epoch and write \
             $(docv)-batchN.json per batch, checked for well-formedness \
             and cross-checked against that batch's stage attempts \
             (SA045).")
  in
  let stats_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"PATH"
          ~doc:
            "Rewrite $(docv) with a JSON metrics snapshot (the engine's \
             registry, executor and kernel-profile series included) after \
             every batch and at exit — live stats \
             exposition for a watching scraper.")
  in
  let serve_inject_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-faults" ] ~docv:"SEED"
          ~doc:
            "Execute every batch under deterministic fault injection \
             seeded with $(docv) (rate from --fault-rate).  Lost \
             partitions are recovered by recomputing stages; when a \
             stage exhausts its attempt budget the flight recorder is \
             dumped and serve exits non-zero.")
  in
  let f machines workers batch_size no_ext no_prune verbose audit json trace
      budget gen seed stats_file profile inject rate file =
    setup_logs verbose;
    Sexec.Profile.set profile;
    let catalog = Relalg.Catalog.default () in
    Sworkload.Session_gen.register catalog;
    let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
    let config = base_config ~no_ext ~no_prune in
    let faults =
      match inject with
      | None -> Ok None
      | Some seed -> (
          match Sexec.Faults.spec ~rate seed with
          | exception Invalid_argument msg -> Error (`Msg msg)
          | spec -> Ok (Some spec))
    in
    Result.bind faults @@ fun faults ->
    let next =
      match (gen, file) with
      | Some _, Some _ -> Error (`Msg "give either a stream file or --gen, not both")
      | Some n, None ->
          Ok
            (Sserve.Session.of_string
               (Sworkload.Session_gen.generate ~seed ~scripts:n ()))
      | None, Some f -> Result.map Sserve.Session.of_string (read_file f)
      | None, None -> Ok (fun () -> Sserve.Session.read stdin)
    in
    Result.bind next @@ fun next ->
    let engine =
      Sserve.Engine.create ~config ?max_seconds:budget ~cluster ~workers
        ~batch_size ?faults catalog
    in
    Sserve.Driver.run ~json ~audit ?trace ?stats_file engine ~next
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running multi-script engine over a session stream \
          (file, stdin, or --gen): scripts are normalized and served from a \
          plan cache keyed on the normalized text (hits skip bind/optimize entirely; a \
          catalog bump invalidates), and concurrently-batched fresh scripts \
          are optimized as one combined memo so common subexpressions \
          across scripts share scans and spools in a single executor run")
    Term.(
      term_result
        (const f $ machines_arg $ workers_arg $ batch_size_arg $ no_ext_arg
       $ no_prune_arg $ verbose_arg $ audit_arg $ json_arg $ trace_prefix_arg
       $ budget_arg $ gen_arg $ seed_arg $ stats_file_arg $ profile_arg
       $ serve_inject_arg $ rate_arg $ file_arg))

(* --- check-trace -------------------------------------------------------- *)

let check_trace_cmd =
  let f file =
    Result.bind (read_file file) @@ fun s ->
    match Sobs.Trace.parse_doc s with
    | exception Sobs.Trace.Malformed msg -> Error (`Msg msg)
    | (ring, events) -> (
        match Sobs.Trace.check ~ring events with
        | [] ->
            let tids =
              List.sort_uniq compare
                (List.map (fun (e : Sobs.Trace.event) -> e.Sobs.Trace.tid)
                   events)
            in
            Fmt.pr "trace OK%s: %d events across %d worker(s)@."
              (if ring then
                 " (flight-recorder ring; dropped-oldest truncation \
                  tolerated)"
               else "")
              (List.length events) (List.length tids);
            Ok ()
        | errs ->
            List.iter (fun e -> Fmt.pr "%s@." e) errs;
            Error
              (`Msg
                (Printf.sprintf "%d well-formedness violation(s)"
                   (List.length errs))))
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:
         "Parse a Chrome trace-event file written by --trace or dumped by \
          the flight recorder and check its well-formedness (balanced \
          spans, per-worker monotone timestamps; ring-flagged dumps \
          tolerate the truncation artifacts of overwriting the oldest \
          events, and nothing else)")
    Term.(
      term_result
        (const f
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"TRACE" ~doc:"Trace JSON file.")))

(* --- lint -------------------------------------------------------------- *)

let lint_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail on warnings as well as errors.")
  in
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also run the cross-layer SA05x passes: canonical semantic \
             equivalence of every physical output against the bound logical \
             DAG, column lineage, spool/enforcer content preservation and \
             the stage-graph interference audit.")
  in
  let list_codes_arg =
    Arg.(
      value & flag
      & info [ "list-codes" ]
          ~doc:
            "Print the diagnostic-code catalog (code, severity, layer, \
             description) and exit; no script is needed.")
  in
  let f machines budget no_ext no_prune verbose strict deep (script, catalog) =
    setup_logs verbose;
    let cluster = Scost.Cluster.with_machines machines Scost.Cluster.default in
    let config = base_config ~no_ext ~no_prune in
    let budget =
      Option.map (fun s -> Sopt.Budget.create ~max_seconds:s ()) budget
    in
    let r = Cse.Pipeline.run ~config ?budget ~cluster ~catalog script in
    Fmt.pr
      "optimized: %d operators, %d shared groups, conventional %.5g, CSE \
       %.5g@."
      (Slogical.Dag.size r.Cse.Pipeline.dag)
      (List.length r.Cse.Pipeline.shared)
      r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost;
    match run_audit ~deep ~strict ~cluster ~catalog r with
    | 0 -> Ok ()
    | code -> exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Optimize a script, then run the full static-analysis audit (memo \
          auditor, sharing auditor, logical-DAG lint, plan-DAG lint, stage \
          audit; --deep adds the cross-layer SA05x passes); exits non-zero \
          on error diagnostics")
    Term.(
      term_result
        (const (fun m b e np v s d codes file builtin ->
             if codes then begin
               Fmt.pr "%a" Sanalysis.Diag.pp_catalog ();
               Ok ()
             end
             else
               Result.bind (read_script file builtin)
                 (guard (f m b e np v s d)))
        $ machines_arg $ budget_arg $ no_ext_arg $ no_prune_arg $ verbose_arg
        $ strict_arg $ deep_arg $ list_codes_arg $ file_arg $ builtin_arg))

(* --- workload ---------------------------------------------------------- *)

let workload_cmd =
  let run name =
    match read_script None (Some name) with
    | Ok (s, _) ->
        print_string s;
        Ok ()
    | Error e -> Error e
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Print a built-in workload script")
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"NAME" ~doc:(Sworkload.Builtin.names ^ "."))))

let main =
  Cmd.group
    (Cmd.info "scopeopt" ~version:"1.0.0"
       ~doc:
         "Cost-based common-subexpression optimization for cloud query \
          processing (ICDE 2012 reproduction)")
    [
      parse_cmd;
      explain_cmd;
      optimize_cmd;
      run_cmd;
      serve_cmd;
      check_trace_cmd;
      lint_cmd;
      workload_cmd;
    ]

let () = exit (Cmd.eval main)
