(** Trace auditor (SA045): every executed stage must appear in the
    collected trace exactly once per attempt.

    Cross-checks the scheduler's determinism contract against the
    observability layer: [attempts] holds one per-stage execution-count
    array per engine run that contributed to the trace (attempt numbers
    restart at 1 per run), and the trace must contain exactly one
    execution-stage span per (run, stage, attempt) — a missing span
    means dropped events or skipped instrumentation, a duplicate means
    an unaccounted execution. *)

val run : attempts:int array list -> Sobs.Trace.event list -> Diag.t list

(** Finish an in-progress trace: stop the tracer, write the Chrome file
    to [path] (narrating it on [ppf], default stdout), then hold it to
    the well-formedness checker and to {!run}.  An unwritable file, a
    malformed trace or an SA045 error is an [Error]. *)
val finish :
  ?ppf:Format.formatter ->
  attempts:int array list ->
  string ->
  (unit, [ `Msg of string ]) result
