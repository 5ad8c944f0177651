(** Cross-validation of physical plans against the reference evaluator. *)

type outcome = {
  ok : bool;
  mismatches : string list;
  outputs : (string * Relalg.Table.t) list;
      (** the engine's OUTPUT tables, in script order *)
  engine : Engine.t;
      (** the engine that ran: its [counters], [metrics] registry,
          [last_*] attempts, seconds, wall and busy figures, and
          [batch_size] describe this run and are read there, not
          copied *)
}

(** Byte-identical output comparison: same files in the same order, same
    rows in the same order.  Stricter than [Table.same_contents] — this is
    what fault-recovery determinism promises. *)
val identical_outputs :
  (string * Relalg.Table.t) list -> (string * Relalg.Table.t) list -> bool

(** Execute the plan on a simulated cluster and compare every OUTPUT file
    against the reference results of the logical DAG; outputs with an
    ORDER BY are checked to be globally sorted, and with [~verify_props]
    every operator's claimed delivered properties are checked against the
    rows it actually produced.  [?faults] injects deterministic faults
    during execution (the outputs must still validate); [?workers] sets
    the executor's domain-pool width and [?batch_size] its columnar batch
    granularity — the outcome is identical for every
    value, only wall time changes. *)
val check :
  ?verify_props:bool ->
  ?faults:Faults.spec ->
  ?oversubscribe:bool ->
  ?workers:int ->
  ?batch_size:int ->
  machines:int ->
  Relalg.Catalog.t ->
  Slogical.Dag.t ->
  Sphys.Plan.t ->
  outcome
