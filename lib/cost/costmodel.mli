(** Operator cost functions. *)

(** Effective parallelism of [machines] fed by [k] distinct partition-key
    values: [m·k/(k+m)] — smoothly models load imbalance (many keys ⇒ ~m,
    few keys ⇒ ~k). *)
val key_parallelism : ?skew_aware:bool -> machines:float -> float -> float

(** Cost of one operator over the given child plans, producing output with
    statistics [out]. *)
val op_cost :
  Cluster.t -> Sphys.Physop.t -> Sphys.Plan.t list -> out:Slogical.Stats.t -> float

(** Cost charged per use of a spooled result (the producer's write cost is
    in the spool's [op_cost]). *)
val spool_read_cost : Cluster.t -> Sphys.Plan.t -> float
