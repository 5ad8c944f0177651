(* Per-kernel batch-time profiling for the vectorized executor.

   Off by default: like [Sobs.Trace], every disabled entry point is one
   atomic load and a branch — no allocation, no clock read — so the
   hooks can live inside [Engine.execute_stage]'s kernel branches
   without costing production runs anything.  Enabled (--profile-
   kernels), each kernel execution records its wall seconds into an
   [exec.kernel_seconds] histogram labeled by kernel and stage in the
   executing engine's [Sobs.Metrics] registry.

   Timing wraps only the kernel work (after the operator's children
   have been evaluated), so a kernel's distribution is its own cost,
   not its subtree's.  Profiling never touches outputs or the exec.*
   counters: enabling it is observationally pure — the determinism
   matrix in test_exec runs one profiled column to prove it. *)

let flag = Atomic.make false
let set on = Atomic.set flag on

(* Kernel timestamps: 0.0 (static, no allocation) when disabled. *)
let now () = if Atomic.get flag then Unix.gettimeofday () else 0.0

let note metrics ~kernel ~stage t0 =
  if Atomic.get flag then
    Sobs.Metrics.observe metrics "exec.kernel_seconds"
      ~labels:[ ("kernel", kernel); ("stage", string_of_int stage) ]
      (Unix.gettimeofday () -. t0)
