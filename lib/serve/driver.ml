(* The serve session loop: one copy of the item dispatch, the per-batch
   narration, trace and audit work, the stats cadence, the flight-dump
   policy and the end-of-run report, for the CLI and the tests alike. *)

(* One line per session, plus the combined run's cost line; returns the
   number of failed sessions. *)
let narrate ppf (b : Engine.batch_result) =
  let seq = b.Engine.seq in
  let failed =
    List.fold_left
      (fun failed (r : Engine.session_result) ->
        match r.Engine.status with
        | Engine.Failed msg ->
            Fmt.pf ppf "batch %d: %s FAILED: %s@." seq r.Engine.id msg;
            failed + 1
        | Engine.Done { cache_hit; combined } ->
            Fmt.pf ppf
              "batch %d: %s %s%s cse cost %.5g (conventional %.5g), %d \
               output(s), %d row(s)@."
              seq r.Engine.id
              (if cache_hit then "cache hit" else "cache miss")
              (if combined then ", combined run" else "")
              r.Engine.cse_cost r.Engine.conventional_cost
              (List.length r.Engine.outputs)
              r.Engine.rows;
            failed)
      0 b.Engine.results
  in
  if b.Engine.combined then
    Fmt.pf ppf
      "batch %d: combined cost %.5g vs solo sum %.5g; %d cross-script \
       share(s)@."
      seq
      (Option.value ~default:0.0 b.Engine.combined_cost)
      (Option.value ~default:0.0 b.Engine.solo_cost_sum)
      b.Engine.cross_script_shares;
  failed

let run ?(out = Fmt.stdout) ?(err = Fmt.stderr) ?(json = false)
    ?(audit = false) ?trace ?stats_file engine ~next =
  let ppf = if json then err else out in
  let say fmt = Fmt.pf ppf fmt in
  let catalog = Engine.catalog engine and cluster = Engine.cluster engine in
  (* The flight recorder rides in the trace ring whenever no explicit
     --trace session owns the tracer. *)
  if trace = None then Sobs.Flight.enable ();
  let stats_rows () = Sobs.Metrics.snapshot (Engine.metrics engine) in
  let stats_json () =
    Sobs.Json.to_string (Sobs.Metrics.to_json (stats_rows ()))
  in
  (* an unwritable stats file does not stop serving; the first failure
     becomes the run's error *)
  let stats_error = ref None in
  let write_stats () =
    Option.iter
      (fun path ->
        match Sobs.Flight.write_file path (stats_json ()) with
        | () -> ()
        | exception Sys_error msg ->
            if !stats_error = None then stats_error := Some msg)
      stats_file
  in
  let flight_dump reason =
    match
      Sobs.Flight.dump ~metrics:(stats_json ()) ~prefix:"scopeopt-serve" ()
    with
    | paths ->
        say "flight recorder dumped (%s): %s@." reason
          (String.concat ", " paths)
    | exception Sys_error msg -> say "flight dump failed: %s@." msg
  in
  let failed = ref 0 and audit_failed = ref 0 and trace_failed = ref 0 in
  let batch_json = ref [] and tenant = ref None in
  let flush () =
    match Engine.flush engine with
    | None -> ()
    | Some b ->
        failed := !failed + narrate ppf b;
        Option.iter
          (fun prefix ->
            let path = Printf.sprintf "%s-batch%d.json" prefix b.Engine.seq in
            match
              Sanalysis.Trace_audit.finish ~ppf ~attempts:b.Engine.attempts
                path
            with
            | Ok () -> ()
            | Error (`Msg msg) ->
                incr trace_failed;
                say "batch %d: trace: %s@." b.Engine.seq msg)
          trace;
        if audit then
          List.iter
            (fun r ->
              let diags =
                Sanalysis.Audit.report ~deep:true ~cluster ~catalog r
              in
              if diags <> [] then
                say "%a%a" Sanalysis.Diag.pp_report diags
                  Sanalysis.Diag.pp_summary diags;
              if
                Sanalysis.Diag.exit_code ~fail_on:Sanalysis.Diag.Warning diags
                <> 0
              then incr audit_failed)
            b.Engine.reports;
        if json then batch_json := Report.batch b :: !batch_json;
        write_stats ()
  in
  let rec loop () =
    match next () with
    | None | Some Session.Quit -> flush ()
    | Some (Session.Script { id; text }) ->
        if trace <> None && Engine.pending_count engine = 0 then
          Sobs.Trace.start ();
        Engine.submit ?tenant:!tenant engine ~id ~text;
        loop ()
    | Some Session.Flush ->
        flush ();
        loop ()
    | Some (Session.Tenant name) ->
        tenant := Some name;
        loop ()
    | Some Session.Stats ->
        say "%s@?" (Sobs.Metrics.to_prom (stats_rows ()));
        loop ()
    | Some Session.Dump ->
        flight_dump "#dump";
        loop ()
    | Some Session.Catalog_bump ->
        flush ();
        let purged = Engine.catalog_bump engine in
        say "catalog bump: statistics epoch %d, %d cache entr%s purged@."
          (Relalg.Catalog.version catalog)
          purged
          (if purged = 1 then "y" else "ies");
        loop ()
  in
  (* the message that stopped the stream early, if any *)
  let stopped =
    match
      match loop () with
      | () -> None
      | exception Session.Protocol_error msg ->
          (* the scripts accepted before the bad item still run *)
          flush ();
          Some msg
    with
    | stopped -> stopped
    | exception Sexec.Scheduler.Recovery_exhausted { stage; attempts } ->
        (* a stage burned its whole attempt budget: dump the recent-span
           window and the metrics so the post-mortem needs no rerun *)
        flight_dump "recovery exhaustion";
        Some
          (Printf.sprintf
             "stage %d exhausted its recovery budget after %d attempt(s); \
              flight recorder dumped"
             stage attempts)
  in
  write_stats ();
  match stopped with
  | Some msg -> Error (`Msg msg)
  | None ->
      let t = Engine.totals engine in
      say "serve: %s@."
        (String.concat " "
           (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) t));
      if json then
        Fmt.pf out "%s@?"
          (Sobs.Json.to_string
             (Report.serve ~machines:cluster.Scost.Cluster.machines ~totals:t
                (List.rev !batch_json) (Engine.metrics engine)));
      (* hold the engine's registry to its accounting story (SA046); an
         inconsistent snapshot is a serve failure, with the flight window
         dumped for the post-mortem *)
      let sa46 =
        Sanalysis.Serve_audit.run
          ~cache_entries:(Plan_cache.size (Engine.cache engine))
          (Sobs.Metrics.snapshot (Engine.metrics engine))
      in
      if sa46 <> [] then begin
        say "%a" Sanalysis.Diag.pp_report sa46;
        flight_dump "SA046 metrics audit failure"
      end;
      if !failed > 0 then
        Error (`Msg (Printf.sprintf "%d session(s) failed" !failed))
      else if sa46 <> [] then Error (`Msg "serve metrics audit (SA046) failed")
      else if !audit_failed > 0 then
        Error (`Msg (Printf.sprintf "%d audit failure(s)" !audit_failed))
      else if !trace_failed > 0 then
        Error (`Msg (Printf.sprintf "%d trace failure(s)" !trace_failed))
      else
        match !stats_error with
        | Some msg -> Error (`Msg ("stats file not written: " ^ msg))
        | None -> Ok ()
