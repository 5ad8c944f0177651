(** The long-running serve engine: a stream of script submissions, a
    plan cache keyed on normalized text, cross-script CSE detection over a
    combined memo, and one persistent executor.

    Submissions accumulate with {!submit} and are processed by
    {!flush}: each script is normalized and looked up in the cache
    (hits skip bind/optimize and re-execute the cached plan; misses are
    solo-optimized and cached), and when a batch carries two or more
    distinct misses their scripts are combined into one memo so
    structurally identical subexpressions spool once across scripts in
    a single executor run.  Combined plans are never cached — a cache
    entry always describes the script alone.

    Each engine counts into its own {!Sobs.Metrics} registry
    ({!metrics}), the one place serve figures are kept: batches,
    submissions and failures, cache hits/misses/invalidations, combined
    runs and cross-script spool shares, per-path session latency
    histograms ([serve.session_seconds{path=hit|share|miss}]), cache
    occupancy gauges ([serve.cache_size], [serve.cache_hit_ratio]) and
    per-tenant traffic counters ([serve.tenant_*{tenant=...}]).  The
    registry is the executor's ({!Sexec.Engine.t}[.metrics]), which
    adds the [exec.*] distributions.  {!totals}, the
    [#stats] verb, [--stats-file] exposition, flight dumps and the SA046
    consistency audit all read it. *)

type status =
  | Done of { cache_hit : bool; combined : bool }
      (** executed; [combined] means the outputs came from the shared
          cross-script run rather than the solo plan *)
  | Failed of string  (** parse/bind/optimize failure, session-local *)

type session_result = {
  id : string;
  fingerprint : int option;  (** [None] when parsing failed *)
  status : status;
  conventional_cost : float;  (** solo estimate from the cache entry *)
  cse_cost : float;
  outputs : (string * Relalg.Table.t) list;  (** statement order *)
  rows : int;  (** total rows across outputs *)
}

type batch_result = {
  seq : int;  (** 1-based batch number *)
  results : session_result list;  (** submission order *)
  combined : bool;
  combined_cost : float option;  (** DAG cost of the combined plan *)
  solo_cost_sum : float option;
      (** what the combined members would have cost run separately *)
  cross_script_shares : int;  (** spools read by two or more sessions *)
  counters : (string * int) list;
      (** the executor's [exec.*] counters summed over this flush's
          runs, plus the optimizer counters of its fresh
          optimizations; sorted by name, zeros dropped *)
  wall_s : float;  (** executor wall seconds, summed over the runs *)
  attempts : int array list;
      (** per-run stage-attempt arrays, for the trace audit *)
  reports : Cse.Pipeline.report list;
      (** distinct optimizations behind this batch — one per distinct
          cache entry (cached plans included) plus the combined run;
          the audit targets *)
}

(** The execution summary a pipeline report carries for an executor's
    most recent run, read from the engine that ran it.  Its width is
    the pool's ([workers], one per [busy_s] slot): the executor caps
    the requested workers at the host's cores. *)
val exec_summary : Sexec.Engine.t -> Cse.Pipeline.exec_summary

type t

(** [create catalog] builds an engine with an empty cache and a
    persistent executor.  [max_seconds] bounds each optimization with
    a fresh budget (budgets are mutable and cannot be shared across
    runs).  [workers]/[batch_size] configure the executor's domain pool
    and columnar batch granularity.  [faults] injects deterministic
    partition losses into every executor run (recovery drills;
    exhaustion propagates out of {!flush} so the caller can dump the
    flight recorder). *)
val create :
  ?config:Cse.Config.t ->
  ?max_seconds:float ->
  ?cluster:Scost.Cluster.t ->
  ?workers:int ->
  ?batch_size:int ->
  ?faults:Sexec.Faults.spec ->
  Relalg.Catalog.t ->
  t

val cache : t -> Plan_cache.t
val catalog : t -> Relalg.Catalog.t
val cluster : t -> Scost.Cluster.t

(** The engine's metrics registry: every serve count, latency
    histogram, cache gauge and per-tenant counter of this engine, and
    its executor's [exec.*] distributions. *)
val metrics : t -> Sobs.Metrics.t

(** Queue a script; nothing runs until {!flush}.  [tenant] (default
    ["default"]) attributes the submission in the per-tenant traffic
    counters. *)
val submit : ?tenant:string -> t -> id:string -> text:string -> unit

val pending_count : t -> int

(** Advance the catalog's statistics epoch and purge now-stale cache
    entries; returns the number purged. *)
val catalog_bump : t -> int

(** Process everything pending as one batch; [None] if nothing was
    pending. *)
val flush : t -> batch_result option

(** Lifetime figures of this engine, by name, in report order:
    [sessions] (every submission, failed ones included), [batches],
    [cache_hits] and [cache_misses] (together, the sessions that did
    not fail), [cache_invalidations], [cache_size], [combined_runs] and
    [cross_script_shares].  Read from its registry and its cache. *)
val totals : t -> (string * int) list
