(** The serve session loop: pulls protocol items, drives an {!Engine},
    narrates every batch and reports at the end.  [scopeopt serve] is
    this loop plus flag parsing; tests drive it directly.

    Scripts are submitted under the latest [#tenant]; [#batch], [#quit]
    and the end of the stream flush; [#catalog-bump] flushes, then bumps
    the statistics epoch; [#stats] prints a Prometheus snapshot of the
    engine's registry, executor and kernel-profile series included; [#dump] dumps the flight
    recorder.  Each batch is narrated one line per session (plus a
    combined-run line), its trace finished and SA045-audited ([trace]),
    its reports deep-audited with warnings fatal ([audit]), and
    [stats_file] rewritten.  At the end the loop rewrites [stats_file]
    once more, prints the [serve:] summary line and,
    under [json], the {!Report.serve} document, and holds the registry
    to SA046.

    The optional arguments are the [serve] flags of the same names.
    Narration goes to [out] (default stdout), or to [err] (default
    stderr) under [json], so that [out] carries only the report.

    A protocol error in the stream first flushes the sessions already
    accepted, then writes the stats file, then returns the error.  A
    stage that exhausts its recovery budget dumps the flight recorder.
    Failed sessions, an SA046 failure, audit and trace failures and an
    unwritable stats file all make the result an [Error]. *)

val run :
  ?out:Format.formatter ->
  ?err:Format.formatter ->
  ?json:bool ->
  ?audit:bool ->
  ?trace:string ->
  ?stats_file:string ->
  Engine.t ->
  next:(unit -> Session.item option) ->
  (unit, [ `Msg of string ]) result
