(* Optimization budget (Section III): bounds the work the optimizer may
   spend.  Tasks count group-optimization invocations and phase-2
   rounds; the wall-clock bound mirrors the 30s/60s budgets the paper
   uses for the large scripts.  The re-optimization phase checks the
   budget between rounds and keeps the best plan found so far when it
   runs out. *)

type t = {
  max_tasks : int option;
  max_seconds : float option;
  started : float;
  mutable tasks : int;
}

let create ?max_tasks ?max_seconds () =
  { max_tasks; max_seconds; started = Unix.gettimeofday (); tasks = 0 }

let tick t = t.tasks <- t.tasks + 1

let elapsed t = Unix.gettimeofday () -. t.started

let exhausted t =
  (match t.max_tasks with Some m -> t.tasks >= m | None -> false)
  || match t.max_seconds with Some s -> elapsed t >= s | None -> false
