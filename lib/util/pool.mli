(** Fixed pool of OCaml 5 domains with nested fork-join parallel loops.

    [with_pool ~workers f] spawns [workers - 1] domains (the calling
    domain is the pool's worker 0) and joins them when [f] returns or
    raises.  [parallel_for] fans a loop body across the pool and blocks
    until every iteration finished; it is safe to nest — the submitter
    always participates, so a nested loop degrades to inline execution
    when every worker is busy.  Iterations must write disjoint slots:
    the claiming order is schedule-dependent, results must not be.

    With [workers = 1] no domain is spawned and every loop runs inline,
    so the sequential behaviour is exactly the pre-pool code path. *)

type t

val with_pool : workers:int -> (t -> 'a) -> 'a

(** [parallel_for t n f] runs [f 0 .. f (n-1)], each exactly once, in
    unspecified order across the pool; returns when all finished.  The
    first exception raised by an iteration is re-raised (the remaining
    iterations still run). *)
val parallel_for : t -> int -> (int -> unit) -> unit

(** Deterministic parallel [Array.init]: slot [i] is written only by
    iteration [i]. *)
val parallel_init : t -> int -> (int -> 'a) -> 'a array

(** Wall-clock seconds each worker spent inside tasks, by worker slot
    (0 = the submitting domain).  Nested loops are not double-counted. *)
val busy_seconds : t -> float array

(** Pool slot of the calling domain: a spawned worker's slot for the
    lifetime of that domain, 0 everywhere else (the submitting domain
    and any domain outside a pool).  Used by the tracing layer to tag
    events with the worker that recorded them. *)
val current_slot : unit -> int
