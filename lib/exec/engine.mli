(** Simulated distributed execution of physical plans, staged,
    domain-parallel and vectorized.

    A stream is an array of per-machine {!Batch.t} lists — columnar
    batches (one value array per column plus a selection vector) consumed
    and produced whole.  Filters narrow selection vectors, projections
    map columns, exchanges hash-route batch slices per destination
    machine with a commutative per-row hash (inputs partitioned on
    equality-linked column sets are co-located), and sort/aggregate
    kernels run over whole column arrays with contiguous-group streaming
    preserved across batch boundaries.

    Execution is staged, SCOPE/Dryad style: {!Stage.build} cuts the plan
    at exchange / merge-exchange / gather / spool boundaries and
    {!Scheduler.run} executes the stages bottom-up in deterministic
    waves, caching each stage's output — in batch form — for its
    consumers; a spooled subexpression runs once however many consumers
    read it.  With [workers > 1], independent stages of a wave fan out
    across a fixed pool of OCaml 5 domains (per-machine vertex loops join
    them only when the stage moves enough rows to amortize dispatch);
    outputs and all fault/retry accounting are byte-identical at every
    worker count {e and} every batch size.  With a fault {!Faults.spec}
    installed, cached partitions can be lost between stages and are
    recovered by recomputing the producing stage.  One {!counters}
    record per run counts rows shuffled/extracted, spool
    executions/reads, batches produced, and stage/retry accounting
    ({!named_counters} names them [exec.*]).
    Distributions live in the engine's own {!Sobs.Metrics} registry:
    rows per batch, rows and wall seconds per stage attempt, and, with
    {!Profile} on, seconds per kernel execution. *)

(** A distributed table: a schema and each machine's batches. *)
type dist

(** {!Scheduler.counters}, re-exported with its fields (documented
    there). *)
type counters = Scheduler.counters = {
  mutable rows_shuffled : int;
  mutable rows_extracted : int;
  mutable spool_executions : int;
  mutable spool_reads : int;
  mutable batches : int;
  mutable stages_run : int;
  mutable vertices_run : int;
  mutable retries : int;
  mutable recomputed_rows : int;
  mutable partitions_lost : int;
  mutable machines_failed : int;
}

(** Every field of {!counters} under its [exec.*] name, in field
    order, zeros included. *)
val named_counters : counters -> (string * int) list

type t = {
  machines : int;
  workers : int;  (** domain-pool width; 1 = fully sequential *)
  batch_size : int;  (** max rows per produced batch *)
  catalog : Relalg.Catalog.t;
  faults : Faults.spec option;
      (** when set, every run draws deterministic fault events *)
  mutable counters : counters;
      (** the most recent {!run}'s counters, a fresh record per run *)
  mu : Mutex.t;  (** guards [counters] additions from worker domains *)
  metrics : Sobs.Metrics.t;
      (** histograms accumulated over every run of the engine:
          [exec.batch_rows] (live rows per committed batch),
          [exec.stage_rows] (rows per committed stage output),
          [exec.stage_seconds] (wall seconds per stage attempt) and, while
          {!Profile} is enabled, [exec.kernel_seconds{kernel,stage}] *)
  extract_mu : Mutex.t;  (** guards [extract_cache] *)
  extract_cache :
    (int * string * Relalg.Schema.t, int * Batch.t list array) Hashtbl.t;
      (** extract batches per (catalog version, file, schema): [Datagen]
          is deterministic, so serving the cache is indistinguishable
          from re-extracting; a miss evicts the entries of older
          catalog versions; [rows_extracted] still counts every extract
          execution *)
  mutable outputs_rev : (string * Relalg.Table.t) list;
      (** OUTPUT tables in reverse script order; [run] returns them
          reversed *)
  verify_props : bool;
      (** when set, every operator's claimed delivered properties are
          checked against the rows it actually produced *)
  mutable prop_violations : string list;
      (** flattened in stage-id order — deterministic at every worker
          count *)
  mutable last_attempts : int array;
      (** per-stage execution counts of the most recent {!run} *)
  mutable last_seconds : float array;
      (** per-stage wall seconds of the most recent {!run} *)
  mutable last_wall : float;
      (** execution wall seconds of the most recent {!run} *)
  mutable last_busy : float array;
      (** per-worker busy seconds of the most recent {!run} *)
}

val default_batch_size : int

(** [workers] is capped at the host's hardware parallelism — an
    oversubscribed pool only adds scheduling latency — unless
    [oversubscribe] is set (the determinism tests use it to force true
    multi-domain runs on any host).  Results are byte-identical at every
    worker count either way. *)
val create :
  ?verify_props:bool ->
  ?faults:Faults.spec ->
  ?oversubscribe:bool ->
  ?workers:int ->
  ?batch_size:int ->
  machines:int ->
  Relalg.Catalog.t ->
  t

(** Row view of one machine's partition, in live order. *)
val part_rows : dist -> int -> Relalg.Value.t array list

(** Build a stream from per-machine row lists (tests, examples): each
    non-empty partition becomes one batch. *)
val dist_of_parts : Relalg.Schema.t -> Relalg.Value.t array list array -> dist

(** Hash-repartition a stream on a column set (counts shuffled rows).
    Sequential convenience entry point for tests and examples. *)
val exchange : t -> dist -> Relalg.Colset.t -> dist

(** Whether rows are in order on (column index, direction) keys,
    compared lexicographically with {!Relalg.Value.compare}: the check
    behind a claimed sort order and an ORDER BY. *)
val rows_sorted :
  (int * Sphys.Sortorder.dir) list -> Relalg.Value.t array list -> bool

(** Execute a root plan; returns the OUTPUT files in script order.
    Resets outputs and property violations and installs a fresh
    [counters] record first, so a reused engine reports exactly this run
    and a record read after an earlier run keeps that run's figures. *)
val run : t -> Sphys.Plan.t -> (string * Relalg.Table.t) list
