(** The run report, schema [scopecse-run-report/6]: the one place that
    names its fields.  [scopeopt run --json], [optimize --json] and
    [serve --json] print the documents built here, and the bench's
    [BENCH_opt.json] embeds the {!optimized} sections.  README.md
    documents the fields.

    A document is [schema], [machines] and then its sections:
    - [optimization]: costs, task counts, optimization wall times, shared
      groups, round and pruning tallies, the budget flag and the LCAs;
    - [execution]: the validated run's outcome, workers, batch figures,
      wall and per-worker busy seconds, utilization and the per-stage
      timeline with wave depths;
    - [counters]: the run's nonzero counters by name, sorted;
    - [metrics]: a registry as {!Sobs.Metrics.to_json} rows;
    - [serve]: the serve engine's totals and one entry per batch. *)

(** The sections of an optimize-only report, keyed by name:
    [optimization] and the pipeline's [counters]. *)
val optimized : Cse.Pipeline.report -> (string * Sobs.Json.t) list

(** The document of one script's run.  With [exec = v] it has
    the [execution] section for [v], counters that add the executor's
    ({!Sexec.Engine.named_counters}) to the pipeline's, and the
    executor's registry as [metrics]; without, the {!optimized}
    sections only. *)
val run :
  machines:int ->
  ?exec:Sexec.Validate.outcome ->
  Cse.Pipeline.report ->
  Sobs.Json.t

(** One [serve.batches_detail] entry: the batch's figures and one object
    per session. *)
val batch : Engine.batch_result -> Sobs.Json.t

(** The serve document: the engine's [totals] with the batch entries,
    and the engine's registry as [metrics]. *)
val serve :
  machines:int ->
  totals:(string * int) list ->
  Sobs.Json.t list ->
  Sobs.Metrics.t ->
  Sobs.Json.t
