(** Optimization budget (Section III): bounds on optimizer work. Tasks
    count group-optimization invocations; the wall-clock bound mirrors the
    30 s / 60 s budgets the paper uses for the large scripts. The
    re-optimization phase checks the budget between rounds and keeps the
    best plan found so far when it runs out. *)

type t = {
  max_tasks : int option;
  max_seconds : float option;
  started : float;
  mutable tasks : int;
  mutable rounds_executed : int;
  mutable rounds_aborted : int;  (** branch-and-bound early exits *)
}

val create : ?max_tasks:int -> ?max_seconds:float -> unit -> t
val unlimited : unit -> t

(** Count one optimization task. *)
val tick : t -> unit

val elapsed : t -> float
val exhausted : t -> bool
val note_round_executed : t -> unit
val note_round_aborted : t -> unit
