(* Fixed pool of OCaml 5 domains with nested fork-join parallel loops.

   The staged executor uses one pool at two levels: the scheduler fans a
   wave of ready stages across the pool, and a stage's own per-machine
   vertex loop fans out again from inside a stage task.  Both go through
   [parallel_for], which is safe to nest: the submitting domain always
   participates in its own group, so progress never depends on another
   worker being idle — with every worker busy, a nested loop simply runs
   inline on its submitter.

   Work claiming is a single fetch-and-add on the group's task cursor;
   the mutex/condition pair is only touched to publish groups, to park
   idle workers, and to signal group completion.  Determinism is the
   caller's contract: tasks must write disjoint slots, so the claiming
   order (which *is* schedule-dependent) never affects results.

   Per-worker busy time is accumulated wall-clock spent inside tasks,
   attributed to the domain that ran them; nested groups do not double
   count (the inner task's time is already inside the outer task's). *)

type group = {
  tasks : int -> unit;
  count : int;
  next : int Atomic.t;  (* claim cursor *)
  pending : int Atomic.t;  (* tasks not yet finished *)
  mutable failed : exn option;  (* first exception, under the pool mutex *)
}

type t = {
  size : int;  (* worker count, the submitting domain included *)
  mu : Mutex.t;
  cv : Condition.t;
  queue : group Queue.t;
  mutable live : bool;
  busy : float array;  (* per-worker seconds inside tasks; slot 0 = submitter *)
}

let busy_seconds t = Array.copy t.busy

(* Marks "this domain is already inside a pool task" so nested groups do
   not double-count busy time. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* The pool slot of the calling domain.  Workers set it once at spawn;
   any domain outside a pool (the submitter included) is slot 0.  The
   tracing layer reads this to tag events with their worker. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let current_slot () = Domain.DLS.get slot_key

let run_task t ~slot (g : group) i =
  let outer = Domain.DLS.get in_task in
  let t0 = if outer then 0.0 else Unix.gettimeofday () in
  if not outer then Domain.DLS.set in_task true;
  (try g.tasks i
   with e ->
     Mutex.lock t.mu;
     if g.failed = None then g.failed <- Some e;
     Mutex.unlock t.mu);
  if not outer then begin
    Domain.DLS.set in_task false;
    t.busy.(slot) <- t.busy.(slot) +. (Unix.gettimeofday () -. t0)
  end;
  if Atomic.fetch_and_add g.pending (-1) = 1 then begin
    (* last task of the group: wake its submitter *)
    Mutex.lock t.mu;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu
  end

(* Claim tasks from [g] until its cursor runs out. *)
let drain t ~slot (g : group) =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add g.next 1 in
    if i < g.count then run_task t ~slot g i else continue := false
  done

let worker t slot =
  Domain.DLS.set slot_key slot;
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && t.live do
      Condition.wait t.cv t.mu
    done;
    match Queue.peek_opt t.queue with
    | None ->
        (* queue empty and the pool is shutting down *)
        Mutex.unlock t.mu
    | Some g ->
        (* pop exhausted groups so later ones become visible; their
           in-flight tasks finish on whichever domain claimed them *)
        if Atomic.get g.next >= g.count then ignore (Queue.pop t.queue);
        Mutex.unlock t.mu;
        drain t ~slot g;
        loop ()
  in
  loop ()

(* Inline execution on the submitting domain still counts as busy time
   (slot 0) unless already inside a task, mirroring [run_task]. *)
let timed_inline t body =
  if Domain.DLS.get in_task then body ()
  else begin
    let t0 = Unix.gettimeofday () in
    Domain.DLS.set in_task true;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set in_task false;
        t.busy.(0) <- t.busy.(0) +. (Unix.gettimeofday () -. t0))
      body
  end

let parallel_for t n f =
  if n <= 0 then ()
  else if t.size <= 1 || n = 1 then
    timed_inline t (fun () ->
        for i = 0 to n - 1 do
          f i
        done)
  else begin
    let g =
      {
        tasks = f;
        count = n;
        next = Atomic.make 0;
        pending = Atomic.make n;
        failed = None;
      }
    in
    Mutex.lock t.mu;
    Queue.push g t.queue;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    (* participate, then wait for tasks claimed by other workers *)
    drain t ~slot:0 g;
    Mutex.lock t.mu;
    while Atomic.get g.pending > 0 do
      Condition.wait t.cv t.mu
    done;
    let failed = g.failed in
    Mutex.unlock t.mu;
    match failed with Some e -> raise e | None -> ()
  end

(* Deterministic parallel [Array.init]: slot [i] is written only by task
   [i], so the result is independent of the claiming schedule. *)
let parallel_init t n f =
  if n <= 0 then [||]
  else if t.size <= 1 || n = 1 then timed_inline t (fun () -> Array.init n f)
  else begin
    let out = Array.make n None in
    parallel_for t n (fun i -> out.(i) <- Some (f i));
    Array.map
      (function Some x -> x | None -> invalid_arg "Pool.parallel_init")
      out
  end

let with_pool ~workers fn =
  let workers = max 1 workers in
  if workers = 1 then
    fn
      {
        size = 1;
        mu = Mutex.create ();
        cv = Condition.create ();
        queue = Queue.create ();
        live = false;
        busy = [| 0.0 |];
      }
  else begin
    let t =
      {
        size = workers;
        mu = Mutex.create ();
        cv = Condition.create ();
        queue = Queue.create ();
        live = true;
        busy = Array.make workers 0.0;
      }
    in
    let domains =
      List.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)))
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.mu;
        t.live <- false;
        Condition.broadcast t.cv;
        Mutex.unlock t.mu;
        List.iter Domain.join domains)
      (fun () -> fn t)
  end
