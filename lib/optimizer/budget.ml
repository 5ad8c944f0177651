(* Optimization budget (Section III): bounds the work the optimizer may
   spend, counted in tasks (group-optimization invocations and phase-2
   rounds), never in seconds, so a truncated plan is a function of its
   inputs.  The re-optimization phase checks the budget between rounds
   and keeps the best plan found so far when it runs out. *)

type t = { max_tasks : int option; mutable tasks : int }

let create ?max_tasks () = { max_tasks; tasks = 0 }
let tick t = t.tasks <- t.tasks + 1

let exhausted t =
  match t.max_tasks with Some m -> t.tasks >= m | None -> false
