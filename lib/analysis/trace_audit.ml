(* Trace auditor: cross-checks the observability layer against the wave
   scheduler's determinism contract.

   The scheduler promises that the logical schedule — which stage runs
   on which attempt — is a pure function of the committed state, and the
   tracing layer promises one execution span per stage attempt.  SA045
   holds both to account: given the per-run attempt counts the engine
   reported, the collected trace must contain exactly one "stage" span
   per (run, stage, attempt), no more, no fewer.  A missing span means
   events were dropped or instrumentation was skipped; a duplicate means
   a stage executed outside the scheduler's accounting.

   [attempts] is one array per engine run that contributed to the trace
   (e.g. the clean run and the fault-injected run of [scopeopt run]);
   attempt numbers restart at 1 per run, so the expected multiset of
   attempt tags for a stage is the concatenation of [1..a_run(stage)]
   over the runs. *)

let int_arg name (e : Sobs.Trace.event) =
  match List.assoc_opt name e.Sobs.Trace.args with
  | Some (Sobs.Trace.Int i) -> Some i
  | Some (Sobs.Trace.Float f) when Float.is_integer f ->
      Some (int_of_float f)
  | _ -> None

(* Execution-stage Begin spans of the trace, as (stage, attempt) pairs. *)
let stage_spans (events : Sobs.Trace.event list) =
  List.filter_map
    (fun (e : Sobs.Trace.event) ->
      if
        e.Sobs.Trace.kind = Sobs.Trace.Begin
        && e.Sobs.Trace.pid = Sobs.Trace.pid_exec
        && String.length e.Sobs.Trace.name >= 6
        && String.sub e.Sobs.Trace.name 0 6 = "stage "
      then
        match (int_arg "stage" e, int_arg "attempt" e) with
        | Some sid, Some attempt -> Some (sid, attempt)
        | _ -> Some (-1, -1) (* malformed span, reported below *)
      else None)
    events

let run ~(attempts : int array list) (events : Sobs.Trace.event list) :
    Diag.t list =
  let diags = ref [] in
  let bad sid fmt =
    Fmt.kstr
      (fun m ->
        diags := Diag.make ~code:"SA045" ~loc:(Diag.Node sid) m :: !diags)
      fmt
  in
  let spans = stage_spans events in
  List.iter
    (fun (sid, _) ->
      if sid < 0 then
        bad 0 "stage span without integer stage/attempt arguments")
    (List.filter (fun (sid, _) -> sid < 0) spans);
  let nstages = List.fold_left (fun acc a -> max acc (Array.length a)) 0 attempts in
  for sid = 0 to nstages - 1 do
    let expected =
      List.concat_map
        (fun a ->
          if sid < Array.length a then List.init a.(sid) (fun i -> i + 1)
          else [])
        attempts
      |> List.sort compare
    in
    let observed =
      List.filter_map
        (fun (s, attempt) -> if s = sid then Some attempt else None)
        spans
      |> List.sort compare
    in
    if observed <> expected then
      bad sid
        "stage %d: executed attempts {%s} but traced spans {%s}" sid
        (String.concat "," (List.map string_of_int expected))
        (String.concat "," (List.map string_of_int observed))
  done;
  (* spans for stages the engine never reported at all *)
  List.iter
    (fun (sid, attempt) ->
      if sid >= nstages then
        bad sid "traced span for unknown stage %d (attempt %d)" sid attempt)
    (List.sort_uniq compare spans);
  List.rev !diags

let finish ?(ppf = Fmt.stdout) ~attempts path =
  Sobs.Trace.stop ();
  let events = Sobs.Trace.collect () in
  match Sobs.Trace.export ~path events with
  | exception Sys_error msg -> Error (`Msg msg)
  | () -> (
      Fmt.pf ppf "wrote %s (%d events%s)@." path (List.length events)
        (match Sobs.Trace.dropped () with
        | 0 -> ""
        | d -> Printf.sprintf ", %d dropped" d);
      match Sobs.Trace.check events with
      | _ :: _ as errs ->
          List.iter (fun e -> Fmt.epr "trace: %s@." e) errs;
          Error (`Msg "trace is not well-formed")
      | [] -> (
          let diags = run ~attempts events in
          if diags <> [] then Fmt.pf ppf "%a" Diag.pp_report diags;
          (* propagate the worst severity to the process exit status
             instead of silently swallowing non-error findings *)
          match Diag.worst diags with
          | Some Diag.Error -> Error (`Msg "trace audit (SA045) failed")
          | Some _ | None -> Ok ()))
