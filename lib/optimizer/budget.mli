(** Optimization budget (Section III): bounds on optimizer work. Tasks
    count group-optimization invocations of the CSE phases (the
    conventional pass is never truncated) plus one per phase-2 round, so
    a task cap bounds phase 2 even where rounds are answered from
    memoized winners; the wall-clock bound mirrors the 30 s / 60 s
    budgets the paper uses for the large scripts. The re-optimization
    phase checks the budget between rounds and keeps the best plan found
    so far when it runs out. *)

type t = {
  max_tasks : int option;
  max_seconds : float option;
  started : float;
  mutable tasks : int;
}

val create : ?max_tasks:int -> ?max_seconds:float -> unit -> t

(** Count one optimization task. *)
val tick : t -> unit

val exhausted : t -> bool
