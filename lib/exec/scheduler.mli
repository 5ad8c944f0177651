(** Deterministic wave scheduler with fault recovery.

    Executes a {!Stage.graph} bottom-up in waves: each round, the stages
    that must (re-)execute and whose inputs are intact run together —
    across a worker pool when one is supplied — then a barrier commits
    their outputs and draws fault events in ascending stage id.  The
    logical schedule is a pure function of committed state, so outputs,
    attempt counts and fault events are identical for every worker
    count; parallelism only changes wall-clock time.  A lost input is
    recovered by recomputing the producing stage — from its own cached
    inputs when intact, recursively from source otherwise — under a
    per-stage attempt budget.  Generic in the stage-output type: the
    caller supplies evaluation and row counting. *)

(** The counters of one executor run; {!Engine.named_counters} names
    them [exec.*].  The engine counts the stream fields — each stage
    execution into a private {!zero} record, {!add}ed into the run's
    record under the engine mutex when the stage finishes — and {!run}
    counts the last six at its commit barrier.  Sums commute, so every
    field is identical at every worker count. *)
type counters = {
  mutable rows_shuffled : int;
  mutable rows_extracted : int;
  mutable spool_executions : int;
  mutable spool_reads : int;
  mutable batches : int;  (** batches across committed stage outputs *)
  mutable stages_run : int;  (** stage executions, recoveries included *)
  mutable vertices_run : int;  (** one vertex per machine per execution *)
  mutable retries : int;  (** recovery re-executions of completed stages *)
  mutable recomputed_rows : int;  (** rows produced by those re-executions *)
  mutable partitions_lost : int;
  mutable machines_failed : int;
}

(** A fresh record, every field 0. *)
val zero : unit -> counters

(** [add c d] adds every field of [d] into [c]. *)
val add : counters -> counters -> unit

(** A stage exceeded its execution budget while recovering. *)
exception Recovery_exhausted of { stage : int; attempts : int }

type 'o outcome = {
  result : 'o;  (** the sink stage's output *)
  attempts : int array;  (** per-stage execution counts *)
  seconds : float array;  (** per-stage wall seconds, attempts summed *)
}

(** [run ~machines ?pool ?faults ~execute ~rows graph] executes every
    stage at least once, waves of independent stages in parallel when
    [pool] is given.  [execute st ~read] evaluates one stage, calling
    [read dep] for each cached input — it may be called concurrently
    from several domains and must not depend on evaluation order within
    a wave; [rows] sizes an output for recompute accounting.  Stage
    executions, vertices, retries, recomputed rows, lost partitions and
    failed machines are counted into [counters] at each barrier.  Each
    stage attempt observes its wall seconds in [stage_seconds] and each
    committed output its rows in [stage_rows].  Raises
    {!Recovery_exhausted} when a stage's attempt budget (default
    {!Faults.default_attempts}) runs out. *)
val run :
  machines:int ->
  ?pool:Sutil.Pool.t ->
  ?faults:Faults.t ->
  ?max_attempts:int ->
  counters:counters ->
  stage_seconds:Sobs.Hist.t ->
  stage_rows:Sobs.Hist.t ->
  execute:(Stage.stage -> read:(int -> 'o) -> 'o) ->
  rows:('o -> int) ->
  Stage.graph ->
  'o outcome

(** [modeled_makespan ~workers ~seconds graph] replays measured
    per-stage durations (from {!outcome}[.seconds]) through the
    fault-free wave schedule with greedy longest-task-first placement on
    [workers] slots, returning the projected execution wall time on a
    host with that many real cores. *)
val modeled_makespan :
  workers:int -> seconds:float array -> Stage.graph -> float
