(** Optimization budget (Section III): a bound on optimizer work. Tasks
    count group-optimization invocations of the CSE phases (the
    conventional pass is never truncated) plus one per phase-2 round, so
    a task cap bounds phase 2 even where rounds are answered from
    memoized winners. The budget reads no clock: a plan found under a
    cap is the same on any host and under any load. The re-optimization
    phase checks the budget between rounds and keeps the best plan found
    so far when it runs out. *)

type t = { max_tasks : int option; mutable tasks : int }

val create : ?max_tasks:int -> unit -> t

(** Count one optimization task. *)
val tick : t -> unit

val exhausted : t -> bool
