(* Deterministic wave scheduler with fault recovery.

   Runs a [Stage.graph] bottom-up in *waves*.  Each round the scheduler
   derives, from nothing but the current cache/lost state, the set of
   stages that must (re-)execute:

     needed  = stages that never ran, closed under "a needed stage's
               dependency whose cached output has lost partitions must
               be recomputed first";
     wave    = needed stages whose dependencies are all intact.

   The wave executes with no internal ordering constraints — stages in a
   wave never depend on each other, so a worker pool may run them in any
   interleaving — and then a barrier commits the results in ascending
   stage id: cache the output, clear lost flags, count into [counters], and
   draw fault events for the completion.  Because the wave itself is a
   pure function of the committed state, and commits happen in a fixed
   order at the barrier, the logical schedule — which stage runs on
   which attempt, which fault events fire — is identical for every
   worker count.  Parallelism changes wall-clock time, nothing else.

   Faults only strike at barriers, so a stage's inputs cannot vanish
   mid-evaluation; the per-completion dice are keyed on
   [(seed, stage, attempt)] (see {!Faults}), so the drawn events do not
   depend on how completions interleave across workers either.

   The scheduler is generic in the stage-output type: the engine
   supplies [execute] (evaluate one stage's interior, reading
   dependencies through the cache) and [rows] (output size, for
   recompute accounting).  [execute] may be called concurrently from
   several domains when a pool is supplied. *)

(* The counters of one executor run, [exec.*] when named.  The engine
   counts the stream fields (a stage execution into a private copy,
   added into the run's record under its mutex); [run] counts the
   stage/fault fields at its barrier, where no stage executes. *)
type counters = {
  mutable rows_shuffled : int;
  mutable rows_extracted : int;
  mutable spool_executions : int;
  mutable spool_reads : int;
  mutable batches : int;
  mutable stages_run : int;
  mutable vertices_run : int;
  mutable retries : int;
  mutable recomputed_rows : int;
  mutable partitions_lost : int;
  mutable machines_failed : int;
}

let zero () =
  {
    rows_shuffled = 0;
    rows_extracted = 0;
    spool_executions = 0;
    spool_reads = 0;
    batches = 0;
    stages_run = 0;
    vertices_run = 0;
    retries = 0;
    recomputed_rows = 0;
    partitions_lost = 0;
    machines_failed = 0;
  }

let add c d =
  c.rows_shuffled <- c.rows_shuffled + d.rows_shuffled;
  c.rows_extracted <- c.rows_extracted + d.rows_extracted;
  c.spool_executions <- c.spool_executions + d.spool_executions;
  c.spool_reads <- c.spool_reads + d.spool_reads;
  c.batches <- c.batches + d.batches;
  c.stages_run <- c.stages_run + d.stages_run;
  c.vertices_run <- c.vertices_run + d.vertices_run;
  c.retries <- c.retries + d.retries;
  c.recomputed_rows <- c.recomputed_rows + d.recomputed_rows;
  c.partitions_lost <- c.partitions_lost + d.partitions_lost;
  c.machines_failed <- c.machines_failed + d.machines_failed

exception Recovery_exhausted of { stage : int; attempts : int }

type 'o outcome = {
  result : 'o;  (* the sink stage's output *)
  attempts : int array;  (* per-stage execution counts *)
  seconds : float array;  (* per-stage wall seconds, attempts summed *)
}

(* [stage_seconds] and [stage_rows] receive one observation per stage
   attempt: always on, far off any inner loop. *)
let run ~machines ?pool ?faults ?(max_attempts = Faults.default_attempts)
    ~counters ~stage_seconds ~stage_rows ~execute ~rows (graph : Stage.graph) :
    'o outcome =
  let n = Array.length graph.Stage.stages in
  let cache : 'o option array = Array.make n None in
  (* lost.(sid) is empty until a fault strikes sid's cached output *)
  let lost : bool array array = Array.make n [||] in
  let attempts = Array.make n 0 in
  let seconds = Array.make n 0.0 in
  (* stages with a cached output, in first-cached order — maintained
     incrementally instead of rescanning all [n] slots per completion *)
  let cached_ids = Array.make n 0 in
  let cached_count = ref 0 in
  let intact sid = cache.(sid) <> None && Array.for_all not lost.(sid) in
  let mark_lost sid m =
    if cache.(sid) <> None then begin
      if lost.(sid) = [||] then lost.(sid) <- Array.make machines false;
      if not lost.(sid).(m) then begin
        lost.(sid).(m) <- true;
        counters.partitions_lost <- counters.partitions_lost + 1
      end
    end
  in
  let inject sid =
    match faults with
    | None -> ()
    | Some f ->
        List.iter
          (function
            | Faults.Lose_partition { stage; machine } ->
                if Sobs.Trace.enabled () then
                  Sobs.Trace.instant ~pid:Sobs.Trace.pid_exec
                    ~args:
                      [
                        ("stage", Sobs.Trace.Int stage);
                        ("machine", Sobs.Trace.Int machine);
                      ]
                    "fault.lose_partition";
                mark_lost stage machine
            | Faults.Kill_machine m ->
                if Sobs.Trace.enabled () then
                  Sobs.Trace.instant ~pid:Sobs.Trace.pid_exec
                    ~args:[ ("machine", Sobs.Trace.Int m) ]
                    "fault.kill_machine";
                counters.machines_failed <- counters.machines_failed + 1;
                for i = 0 to !cached_count - 1 do
                  mark_lost cached_ids.(i) m
                done)
          (Faults.draw f ~stage:sid ~attempt:attempts.(sid) ~cached:cached_ids
             ~cached_count:!cached_count)
  in
  let read dep =
    match cache.(dep) with
    | Some o -> o
    | None -> invalid_arg "Scheduler: dependency executed out of order"
  in
  let pfor count f =
    match pool with
    | Some p -> Sutil.Pool.parallel_for p count f
    | None ->
        for i = 0 to count - 1 do
          f i
        done
  in
  let needed = Array.make n false in
  let rec demand sid =
    if not needed.(sid) then begin
      needed.(sid) <- true;
      List.iter
        (fun (_, dep) -> if not (intact dep) then demand dep)
        graph.Stage.stages.(sid).Stage.deps
    end
  in
  let running = ref true in
  while !running do
    Array.fill needed 0 n false;
    for sid = 0 to n - 1 do
      if cache.(sid) = None then demand sid
    done;
    let wave = ref [] in
    for sid = n - 1 downto 0 do
      if
        needed.(sid)
        && List.for_all
             (fun (_, dep) -> intact dep)
             graph.Stage.stages.(sid).Stage.deps
      then wave := sid :: !wave
    done;
    match !wave with
    | [] -> running := false
    | wave ->
        let wave = Array.of_list wave in
        let k = Array.length wave in
        (* charge attempts in id order before anything executes, so the
           budget error is raised at the same point for every worker
           count *)
        Array.iter
          (fun sid ->
            attempts.(sid) <- attempts.(sid) + 1;
            if attempts.(sid) > max_attempts then
              raise
                (Recovery_exhausted { stage = sid; attempts = attempts.(sid) }))
          wave;
        let outputs = Array.make k None in
        pfor k (fun i ->
            let sid = wave.(i) in
            if Sobs.Trace.enabled () then
              Sobs.Trace.begin_span ~pid:Sobs.Trace.pid_exec
                ~args:
                  [
                    ("stage", Sobs.Trace.Int sid);
                    ("attempt", Sobs.Trace.Int attempts.(sid));
                    ("worker", Sobs.Trace.Int (Sutil.Pool.current_slot ()));
                  ]
                (Printf.sprintf "stage %d" sid);
            let t0 = Unix.gettimeofday () in
            let out = execute graph.Stage.stages.(sid) ~read in
            let dt = Unix.gettimeofday () -. t0 in
            seconds.(sid) <- seconds.(sid) +. dt;
            Sobs.Hist.observe stage_seconds dt;
            if Sobs.Trace.enabled () then
              Sobs.Trace.end_span ~pid:Sobs.Trace.pid_exec
                (Printf.sprintf "stage %d" sid);
            outputs.(i) <- Some out);
        (* barrier: commit and draw faults in ascending stage id *)
        for i = 0 to k - 1 do
          let sid = wave.(i) in
          let out =
            match outputs.(i) with
            | Some o -> o
            | None -> invalid_arg "Scheduler: wave task produced no output"
          in
          let recovery = cache.(sid) <> None in
          if not recovery then begin
            cached_ids.(!cached_count) <- sid;
            incr cached_count
          end;
          cache.(sid) <- Some out;
          lost.(sid) <- [||];
          counters.stages_run <- counters.stages_run + 1;
          counters.vertices_run <- counters.vertices_run + machines;
          Sobs.Hist.observe stage_rows (float_of_int (rows out));
          if recovery then begin
            counters.retries <- counters.retries + 1;
            counters.recomputed_rows <- counters.recomputed_rows + rows out
          end;
          inject sid
        done
  done;
  let result =
    match cache.(graph.Stage.sink) with
    | Some o -> o
    | None -> invalid_arg "Scheduler: sink stage did not complete"
  in
  { result; attempts; seconds }

(* Replay measured per-stage durations through the same fault-free wave
   schedule with greedy longest-processing-time placement on [workers]
   slots.  Gives the makespan this graph would have on a machine with
   [workers] real cores — the honest figure to report when the host has
   fewer cores than the pool has domains. *)
let modeled_makespan ~workers ~seconds (graph : Stage.graph) =
  let workers = max 1 workers in
  let n = Array.length graph.Stage.stages in
  let finished = Array.make n false in
  let remaining = ref n in
  let total = ref 0.0 in
  while !remaining > 0 do
    let wave = ref [] in
    Array.iter
      (fun (st : Stage.stage) ->
        if
          (not finished.(st.Stage.id))
          && List.for_all (fun (_, dep) -> finished.(dep)) st.Stage.deps
        then wave := st.Stage.id :: !wave)
      graph.Stage.stages;
    let wave =
      List.sort (fun a b -> compare seconds.(b) seconds.(a)) !wave
    in
    if wave = [] then invalid_arg "Scheduler.modeled_makespan: cyclic graph";
    let load = Array.make workers 0.0 in
    List.iter
      (fun sid ->
        let slot = ref 0 in
        for w = 1 to workers - 1 do
          if load.(w) < load.(!slot) then slot := w
        done;
        load.(!slot) <- load.(!slot) +. seconds.(sid);
        finished.(sid) <- true;
        decr remaining)
      wave;
    total := !total +. Array.fold_left max 0.0 load
  done;
  !total
