(* The flight recorder: an always-on bounded ring of recent spans and
   events, dumped on demand for post-mortems.

   [enable] turns on ring-mode tracing (reusing [Trace]'s per-domain
   buffers) with a modest capacity, but only when no explicit trace
   session is active — a user-requested [--trace] always wins, and the
   dump then simply exports whatever that session recorded.  [dump]
   writes the current window as a Chrome trace (marked with the ring
   flag so [check-trace] tolerates dropped-oldest truncation) plus an
   optional pre-rendered metrics snapshot, and returns the paths it
   wrote.  Serve calls it on recovery exhaustion, audit failure and the
   [#dump] protocol verb, so a crash never loses the in-flight window
   to a run that was not started under [--trace]. *)

(* Events kept per domain. *)
let capacity = 1 lsl 14

(* Whether [enable] owns the current trace session (vs. a --trace run). *)
let owner = Atomic.make false

let enable () =
  if not (Trace.enabled ()) then begin
    Trace.start ~capacity ~ring:true ();
    Atomic.set owner true
  end

(* Close the descriptor on every path and remove the partial file when
   the write fails, so an ENOSPC or permission error cannot leave a
   truncated artifact behind. *)
let write_file path text =
  let oc = open_out path in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !ok then try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      output_string oc text;
      flush oc;
      ok := true)

(* Dump the recorder's window: [<prefix>-flight-trace.json] (Chrome
   trace, ring-flagged per the session's mode) and, when [metrics] is
   given, [<prefix>-flight-metrics.json].  Only call with worker
   domains joined (between runs), like [Trace.collect].  Returns the
   paths written, in write order. *)
let dump ?metrics ~prefix () =
  let trace_path = prefix ^ "-flight-trace.json" in
  Trace.export ~ring:(Trace.ring ()) ~path:trace_path (Trace.collect ());
  let metric_paths =
    match metrics with
    | None -> []
    | Some text ->
        let path = prefix ^ "-flight-metrics.json" in
        write_file path text;
        [ path ]
  in
  trace_path :: metric_paths
