(** Per-kernel batch-time profiling for the vectorized executor.

    Disabled by default; every disabled entry point is one atomic load
    and a branch — no allocation, no clock read — so the hooks stay in
    the executor's kernel branches at zero production cost.  The on/off
    switch is process-wide, like {!Sobs.Trace}'s; the readings are not.
    Enabled ([--profile-kernels]), each kernel execution lands its wall
    seconds in an [exec.kernel_seconds] histogram labeled [kernel] and
    [stage] in the registry of the engine that ran it
    ({!Engine.t}[.metrics]).  Profiling never changes outputs or
    counters. *)

val set : bool -> unit

(** Timestamp for a kernel about to run; [0.0] (no clock read, no
    allocation) when disabled. *)
val now : unit -> float

(** [note metrics ~kernel ~stage t0] records the wall seconds since [t0]
    of one kernel execution of a stage into [metrics].  No-op when
    disabled. *)
val note : Sobs.Metrics.t -> kernel:string -> stage:int -> float -> unit
