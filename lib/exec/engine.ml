open Relalg
open Sphys

(* Simulated distributed execution of physical plans, staged,
   domain-parallel and vectorized.

   A stream is an array of per-machine *batch lists* ([Batch.t]): one
   value array per column plus a selection vector, consumed and produced
   whole batches at a time.  Filters narrow selection vectors, sorts
   permute them and re-chunking slices them, all over shared columns;
   projections of bare columns share them too, computed projections map
   columns, exchanges compute a hash per live row and gather each
   destination's rows into one dense batch, aggregate kernels read
   through the selection (streaming aggregation carries its group state
   across batch boundaries).  Exchange / spool / gather boundaries
   ship batches, so stage outputs are cached — and recomputed after a
   fault — in batch form.

   Exchanges use a *commutative* per-row hash over the partition columns,
   so two inputs partitioned on column sets linked by join equalities are
   co-located (the property the optimizer's co-partitioning rules rely
   on).

   Execution is staged, SCOPE/Dryad style: [Stage.build] cuts the plan at
   exchange / merge-exchange / gather / spool boundaries, and [Scheduler]
   runs the stages bottom-up in deterministic waves, caching each stage's
   output for its consumers.  With [workers > 1] a fixed pool of OCaml 5
   domains executes independent stages of a wave concurrently; the
   per-machine vertex loops inside a stage fan out across the same pool
   only when the stage moves enough rows to amortize the dispatch
   ([par_threshold]).  Outputs are byte-identical at every worker count
   *and* every batch size: parallel loops write disjoint slots,
   everything order-sensitive happens at the scheduler's commit barriers,
   and every batch kernel preserves the row engine's live-row order
   (chunking only changes framing — see [Batch]).

   Counter discipline under parallelism: a run counts into one
   [Scheduler.counters] record.  Each stage execution counts its stream
   fields (rows shuffled / extracted, spool traffic, batches produced)
   into a private copy, added into the run's record under a mutex when
   the stage finishes; the scheduler counts stage and fault figures at
   its commit barrier — addition commutes, so totals are deterministic.
   Property violations go to a per-stage slot (one writer each) and are
   flattened in stage-id order after the run.  With fault
   injection ([Faults]), cached partitions can be lost between stages and
   are recovered by recomputing the producing stage; [Validate] compares
   every output against the reference evaluator. *)

type dist = { schema : Schema.t; parts : Batch.t list array }

type counters = Scheduler.counters = {
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

let named_counters (c : counters) =
  [
    ("exec.rows_shuffled", c.rows_shuffled);
    ("exec.rows_extracted", c.rows_extracted);
    ("exec.spool_executions", c.spool_executions);
    ("exec.spool_reads", c.spool_reads);
    ("exec.stages_run", c.stages_run);
    ("exec.vertices_run", c.vertices_run);
    ("exec.batches", c.batches);
    ("exec.retries", c.retries);
    ("exec.recomputed_rows", c.recomputed_rows);
    ("exec.partitions_lost", c.partitions_lost);
    ("exec.machines_failed", c.machines_failed);
  ]

type t = {
  machines : int;
  workers : int;  (* domain-pool width; 1 = fully sequential *)
  batch_size : int;  (* max rows per produced batch *)
  catalog : Catalog.t;
  (* when set, every run draws deterministic fault events from this spec *)
  faults : Faults.spec option;
  (* the most recent run's counters: a fresh record per [run] *)
  mutable counters : counters;
  mu : Mutex.t;  (* guards [counters] additions from worker domains *)
  (* the engine's distributions: exec.batch_rows, exec.stage_rows,
     exec.stage_seconds, and exec.kernel_seconds when profiling *)
  metrics : Sobs.Metrics.t;
  (* per-(file, schema) extract batches: [Datagen] is deterministic, so a
     re-extraction — another stage over the same file, a later rep on a
     reused engine, a fault recovery — returns byte-identical rows by
     construction; serving the cached batches is indistinguishable from
     recomputing them.  Guarded by [extract_mu] (stages of one wave may
     extract concurrently).  A miss evicts every entry of an older
     catalog version.  [rows_extracted] still counts every extract
     execution, cached or not, so fault accounting is unchanged. *)
  extract_mu : Mutex.t;
  extract_cache : (int * string * Schema.t, int * Batch.t list array) Hashtbl.t;
  mutable outputs_rev : (string * Table.t) list;
  (* when set, every operator's *claimed* delivered properties are checked
     against the rows it actually produced *)
  verify_props : bool;
  mutable prop_violations : string list;
  (* per-stage execution counts of the most recent [execute] *)
  mutable last_attempts : int array;
  (* per-stage wall seconds of the most recent [execute] *)
  mutable last_seconds : float array;
  (* execution wall seconds of the most recent [execute] *)
  mutable last_wall : float;
  (* per-worker busy seconds of the most recent [execute] *)
  mutable last_busy : float array;
}

let default_batch_size = 1024

(* Below this many moved rows a per-machine loop runs inline: fanning
   tiny column slices across domains costs more in dispatch than the
   work.  Scheduling only — results are slot-disjoint either way. *)
let par_threshold = 8192

(* A pool wider than the host's cores cannot help — the domains timeshare
   and every stop-the-world minor collection pays their scheduling
   latency — so the requested width is capped at the hardware parallelism
   unless the caller insists ([oversubscribe], used by the determinism
   tests to exercise true multi-domain runs regardless of host).  Results
   are byte-identical at every worker count, so the cap is scheduling
   only. *)
let create ?(verify_props = false) ?faults
    ?(oversubscribe = false) ?(workers = 1)
    ?(batch_size = default_batch_size) ~machines catalog =
  let workers = max 1 workers in
  let workers =
    if oversubscribe then workers
    else min workers (Domain.recommended_domain_count ())
  in
  {
    machines;
    workers;
    batch_size = max 1 batch_size;
    catalog;
    faults;
    counters = Scheduler.zero ();
    mu = Mutex.create ();
    metrics = Sobs.Metrics.create ();
    extract_mu = Mutex.create ();
    extract_cache = Hashtbl.create 16;
    outputs_rev = [];
    verify_props;
    prop_violations = [];
    last_attempts = [||];
    last_seconds = [||];
    last_wall = 0.0;
    last_busy = [||];
  }

let empty_parts t : Batch.t list array = Array.make t.machines []

let part_live bs = List.fold_left (fun acc b -> acc + Batch.live b) 0 bs

let dist_rows (d : dist) =
  Array.fold_left (fun acc bs -> acc + part_live bs) 0 d.parts

(* Row view of one machine's partition, in live order. *)
let part_rows (d : dist) m = List.concat_map Batch.to_rows d.parts.(m)

(* Build a stream from per-machine row lists (tests, examples). *)
let dist_of_parts schema (parts : Value.t array list array) : dist =
  {
    schema;
    parts =
      Array.map
        (fun rows -> if rows = [] then [] else [ Batch.of_rows schema rows ])
        parts;
  }

(* Per-partition map across the pool: slot [m] is written only by the
   task that evaluated partition [m], so the result is schedule
   independent.  Small streams run inline (see [par_threshold]). *)
let map_parts pool f (d : dist) schema' =
  let parts =
    if dist_rows d < par_threshold then Array.map f d.parts
    else
      Sutil.Pool.parallel_init pool (Array.length d.parts) (fun m ->
          f d.parts.(m))
  in
  { schema = schema'; parts }

let sort_keys (schema : Schema.t) (order : Sortorder.t) =
  List.map (fun (c, dir) -> (Schema.index c schema, dir)) order

(* Sort one machine's batches: one stable sort over the partition, then
   re-chunk.  Identical to stable-sorting the partition's row list.  A
   single batch is sorted in place of its selection; only a partition of
   several batches is concatenated first.  An empty partition is []
   without touching the kernel. *)
let sort_part batch_size schema keys bs =
  let sorted b = Batch.split ~size:batch_size (Batch.sort keys b) in
  match bs with
  | _ when List.for_all (fun b -> Batch.live b = 0) bs -> []
  | [ b ] -> sorted b
  | bs -> sorted (Batch.concat schema bs)

(* Two-phase exchange: each input partition's batches compute their
   per-destination routing selections in parallel (no column data moves),
   then each output machine gathers its fragments — in input-partition
   order, batch order within a partition, row order within a batch — into
   one dense batch.  Exactly the arrival order the sequential single-pass
   row engine produced, at every worker count and batch size, with one
   column copy per received row. *)
let exchange_on pool ~machines (counters : counters) (d : dist) cols =
  let key_idx =
    Array.of_list
      (List.map (fun c -> Schema.index c d.schema) (Colset.to_list cols))
  in
  let nsrc = Array.length d.parts in
  let total = dist_rows d in
  let scatter_src src =
    List.map
      (fun b -> (b, Batch.scatter_sel ~machines key_idx b))
      d.parts.(src)
  in
  let par = total >= par_threshold in
  let buckets =
    if par then Sutil.Pool.parallel_init pool nsrc scatter_src
    else Array.init nsrc scatter_src
  in
  counters.rows_shuffled <- counters.rows_shuffled + total;
  let gather_dst dst =
    let frags = ref [] in
    for src = nsrc - 1 downto 0 do
      List.iter
        (fun (b, sels) ->
          if Array.length sels.(dst) > 0 then frags := (b, sels.(dst)) :: !frags)
        (List.rev buckets.(src))
    done;
    match !frags with
    | [] -> []
    | frags -> [ Batch.gather d.schema frags ]
  in
  let parts =
    if par then Sutil.Pool.parallel_init pool machines gather_dst
    else Array.init machines gather_dst
  in
  { schema = d.schema; parts }

(* Sequential convenience wrapper kept for tests and examples; counts
   the shuffle straight into the engine's counters. *)
let exchange t (d : dist) cols =
  Sutil.Pool.with_pool ~workers:1 (fun pool ->
      exchange_on pool ~machines:t.machines t.counters d cols)

(* Whether [rows] are ordered on [keys], (column index, direction) pairs
   compared lexicographically with [Value.compare]. *)
let rows_sorted keys rows =
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
          let c = Value.compare a.(i) b.(i) in
          let c = match dir with Sortorder.Asc -> c | Sortorder.Desc -> -c in
          if c <> 0 then c else go rest
    in
    go keys
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted rest
    | _ -> true
  in
  sorted rows

let pred_of_pairs pairs residual =
  let eqs =
    List.map (fun (a, b) -> Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)) pairs
  in
  let conj =
    match eqs @ Option.to_list residual with
    | [] -> Expr.Lit (Value.Int 1)
    | e :: rest -> List.fold_left (fun acc x -> Expr.And (acc, x)) e rest
  in
  conj

(* Check that the delivered properties recorded on a plan node hold on the
   rows it actually produced: a [Serial] stream occupies one machine, a
   [Hashed s] stream co-locates every s-tuple, and each partition is sorted
   per the claimed order.  A claimed partition or sort column that the
   delivered schema does not even contain is itself a violation.
   Violations accumulate in [viols], newest first — one ref per stage
   execution, so concurrent stages never interleave their reports.
   Checking extracts a row view per partition ([verify_props]).  The
   bench and serve engines leave it off, but [scopeopt run] always
   verifies, so it runs inside the wall that [run] reports. *)
let check_delivered viols (n : Plan.t) (d : dist) =
  let violation fmt = Fmt.kstr (fun m -> viols := m :: !viols) fmt in
  let where = Physop.to_string n.Plan.op in
  let rows_of m = List.concat_map Batch.to_rows d.parts.(m) in
  (match n.Plan.props.Props.part with
  | Partition.Roundrobin -> ()
  | Partition.Serial ->
      let occupied =
        Array.fold_left
          (fun acc bs -> if part_live bs = 0 then acc else acc + 1)
          0 d.parts
      in
      if occupied > 1 then
        violation "%s: claims serial but occupies %d machines" where occupied
  | Partition.Hashed s ->
      let idxs =
        List.filter_map (fun c -> Schema.index_opt c d.schema) (Colset.to_list s)
      in
      if List.length idxs <> Colset.cardinal s then
        violation "%s: claims hash%s but the delivered schema lacks %d of its columns"
          where (Colset.to_string s)
          (Colset.cardinal s - List.length idxs)
      else begin
        let homes = Hashtbl.create 64 in
        for m = 0 to Array.length d.parts - 1 do
          List.iter
            (fun row ->
              let key = List.map (fun i -> row.(i)) idxs in
              match Hashtbl.find_opt homes key with
              | Some m0 when m0 <> m ->
                  violation
                    "%s: claims hash%s but a %s group spans machines %d and %d"
                    where (Colset.to_string s) (Colset.to_string s) m0 m
              | Some _ -> ()
              | None -> Hashtbl.add homes key m)
            (rows_of m)
        done
      end);
  match n.Plan.props.Props.sort with
  | [] -> ()
  | order ->
      let idxs =
        List.filter_map
          (fun (c, dir) ->
            Option.map (fun i -> (i, dir)) (Schema.index_opt c d.schema))
          order
      in
      if List.length idxs <> List.length order then
        violation "%s: claims sort %s but the delivered schema lacks %d of its columns"
          where (Sortorder.to_string order)
          (List.length order - List.length idxs)
      else
        for m = 0 to Array.length d.parts - 1 do
          if not (rows_sorted idxs (rows_of m)) then
            violation "%s: claims sort %s but machine %d is out of order"
              where (Sortorder.to_string order) m
        done

(* Evaluate one stage's interior.  Boundary children are consumed from the
   stage's dependency list in left-to-right depth-first order — the order
   [Stage.build] recorded them — reading the producing stage's cached
   output through [read].  Physical identity is asserted at every
   consumption, so a compiler/evaluator walk divergence fails fast instead
   of silently wiring a stage to the wrong input.  Boundary operators
   appear in [eval_op] only as stage roots.

   May run on any worker domain, concurrently with other stages: shared
   engine state is read-only here, stream counters go to the caller's
   private [counters], violations to the caller's [viols], and the
   per-machine loops below fan out through [pool] writing disjoint
   slots.  The only
   exception is [outputs_rev], written by OUTPUT operators — those are
   confined to the sink stage, which the scheduler always runs in a wave
   of its own (every other stage is one of its transitive dependencies). *)
let execute_stage t ~pool ~counters ~viols ~batch_rows ~is_sink
    (st : Stage.stage) ~read : dist =
  let deps = ref st.Stage.deps in
  (* stage label for the kernel profiler; [Profile.now]/[Profile.note]
     are one atomic load and a branch when profiling is off *)
  let sid = st.Stage.id in
  let note kernel t0 = Profile.note t.metrics ~kernel ~stage:sid t0 in
  let rec eval (n : Plan.t) : dist =
    let d = eval_op n in
    if t.verify_props then check_delivered viols n d;
    d
  and eval_child (c : Plan.t) : dist =
    if Stage.boundary c then
      match !deps with
      | (b, sid) :: rest when b == c ->
          deps := rest;
          (match c.Plan.op with
          | Physop.P_spool -> counters.spool_reads <- counters.spool_reads + 1
          | _ -> ());
          read sid
      | _ -> invalid_arg "Engine: stage dependency consumed out of order"
    else eval c
  and eval_op (n : Plan.t) : dist =
    let schema = n.Plan.schema in
    match n.Plan.op with
    | Physop.P_extract { file; schema = fschema; _ } ->
        let t0 = Profile.now () in
        let key = (Catalog.version t.catalog, file, fschema) in
        let rows, parts =
          Mutex.protect t.extract_mu (fun () ->
              match Hashtbl.find_opt t.extract_cache key with
              | Some cached -> cached
              | None ->
                  (* catalog versions only increase, so batches cached
                     under an older version can never be read again:
                     drop them, or a long-lived engine whose catalog
                     keeps changing grows without bound *)
                  let version, _, _ = key in
                  Hashtbl.filter_map_inplace
                    (fun (v, _, _) cached ->
                      if v < version then None else Some cached)
                    t.extract_cache;
                  let table =
                    Datagen.table t.catalog ~file ~schema:fschema
                  in
                  let parts = Array.make t.machines [] in
                  List.iteri
                    (fun i row ->
                      let m = i mod t.machines in
                      parts.(m) <- row :: parts.(m))
                    table.Table.rows;
                  let built =
                    ( Table.cardinality table,
                      Array.map
                        (fun rows ->
                          if rows = [] then []
                          else
                            Batch.split ~size:t.batch_size
                              (Batch.of_rows fschema (List.rev rows)))
                        parts )
                  in
                  Hashtbl.add t.extract_cache key built;
                  built)
        in
        counters.rows_extracted <- counters.rows_extracted + rows;
        note "extract" t0;
        { schema = fschema; parts }
    | Physop.P_filter { pred } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let cpred = Expr.compile d.schema pred in
        let r =
          map_parts pool
            (fun bs ->
              List.filter_map
                (fun b ->
                  let b = Batch.filter cpred b in
                  if Batch.live b = 0 then None else Some b)
                bs)
            d schema
        in
        note "filter" t0;
        r
    | Physop.P_project { items } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let ces =
          Array.of_list
            (List.map (fun (e, _) -> Expr.compile d.schema e) items)
        in
        let r = map_parts pool (List.map (Batch.project schema ces)) d schema in
        note "project" t0;
        r
    | Physop.P_sort { order } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let keys = sort_keys d.schema order in
        let r = map_parts pool (sort_part t.batch_size d.schema keys) d schema in
        note "sort" t0;
        r
    | Physop.P_stream_agg { keys; aggs; scope = _ } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let key_idx =
          Array.of_list (List.map (fun k -> Schema.index k d.schema) keys)
        in
        let aggs_a = Array.of_list aggs in
        let cargs =
          Array.map (fun a -> Expr.compile d.schema a.Agg.arg) aggs_a
        in
        let r =
          map_parts pool
            (fun bs ->
              Batch.split ~size:t.batch_size
                (Batch.stream_agg schema ~key_idx ~aggs:aggs_a ~cargs bs))
            d schema
        in
        note "aggregate" t0;
        r
    | Physop.P_merge_join { kind; pairs; residual }
    | Physop.P_hash_join { kind; pairs; residual } -> (
        match n.Plan.children with
        | [ lc; rc ] ->
            (* left before right: the dependency cursor order is the
               compiler's left-to-right walk *)
            let l = eval_child lc in
            let r = eval_child rc in
            let kind =
              match kind with
              | Slogical.Logop.Inner -> `Inner
              | Slogical.Logop.Left_outer -> `Left_outer
            in
            let t0 = Profile.now () in
            let cpred =
              Expr.compile (l.schema @ r.schema)
                (pred_of_pairs pairs residual)
            in
            let join_m m =
              Batch.split ~size:t.batch_size
                (Batch.join ~kind cpred
                   (Batch.concat l.schema l.parts.(m))
                   (Batch.concat r.schema r.parts.(m)))
            in
            let parts =
              if dist_rows l + dist_rows r < par_threshold then
                Array.init t.machines join_m
              else Sutil.Pool.parallel_init pool t.machines join_m
            in
            note "join" t0;
            { schema; parts }
        | _ -> invalid_arg "Engine: join expects two children")
    | Physop.P_union_all -> (
        match n.Plan.children with
        | [ lc; rc ] ->
            let l = eval_child lc in
            let r = eval_child rc in
            {
              schema;
              parts =
                Array.init t.machines (fun m -> l.parts.(m) @ r.parts.(m));
            }
        | _ -> invalid_arg "Engine: union expects two children")
    | Physop.P_spool ->
        (* stage root: materialize once; consumers read through the
           scheduler cache and count spool_reads at their boundary *)
        counters.spool_executions <- counters.spool_executions + 1;
        eval_child (List.hd n.Plan.children)
    | Physop.P_output { file } ->
        if not is_sink then
          invalid_arg "Engine: OUTPUT outside the sink stage";
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let rows =
          List.concat (List.init t.machines (fun m -> part_rows d m))
        in
        t.outputs_rev <- (file, Table.make d.schema rows) :: t.outputs_rev;
        note "output" t0;
        d
    | Physop.P_sequence ->
        List.iter (fun c -> ignore (eval_child c)) n.Plan.children;
        { schema = []; parts = empty_parts t }
    | Physop.P_exchange { cols } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let r = exchange_on pool ~machines:t.machines counters d cols in
        note "exchange" t0;
        r
    | Physop.P_merge_exchange { cols } ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let child_sort = (List.hd n.Plan.children).Plan.props.Props.sort in
        let ex = exchange_on pool ~machines:t.machines counters d cols in
        (* merge the sorted runs: re-sorting each partition is equivalent *)
        let keys = sort_keys ex.schema child_sort in
        let r =
          map_parts pool (sort_part t.batch_size ex.schema keys) ex ex.schema
        in
        note "exchange" t0;
        r
    | Physop.P_gather ->
        let d = eval_child (List.hd n.Plan.children) in
        let t0 = Profile.now () in
        let all = List.concat (Array.to_list d.parts) in
        let child_sort = (List.hd n.Plan.children).Plan.props.Props.sort in
        let all =
          if Sortorder.is_empty child_sort then all
          else
            sort_part t.batch_size d.schema (sort_keys d.schema child_sort)
              all
        in
        let parts = empty_parts t in
        parts.(0) <- all;
        counters.rows_shuffled <- counters.rows_shuffled + part_live all;
        note "gather" t0;
        { schema = d.schema; parts }
  in
  let d = eval st.Stage.root in
  (match !deps with
  | [] -> ()
  | _ -> invalid_arg "Engine: stage dependencies left unconsumed");
  (* per-stage batch accounting over the committed output *)
  Array.iter
    (List.iter (fun b ->
         counters.batches <- counters.batches + 1;
         Sobs.Hist.observe batch_rows (float_of_int (Batch.live b))))
    d.parts;
  d

let execute t (plan : Plan.t) : dist =
  let graph =
    Sobs.Trace.with_span ~pid:Sobs.Trace.pid_stage "build stage graph"
      (fun () -> Stage.build plan)
  in
  let faults =
    Option.map (fun s -> Faults.create ~machines:t.machines s) t.faults
  in
  let max_attempts =
    match t.faults with
    | Some s -> Faults.max_attempts s
    | None -> Faults.default_attempts
  in
  (* one violation slot per stage: each execution appends only to its own
     stage's slot, flattened in stage-id order below — a deterministic
     report at every worker count *)
  let viol_slots = Array.make (Stage.size graph) [] in
  let hist name = Sobs.Metrics.histogram t.metrics name in
  let batch_rows = hist "exec.batch_rows" in
  let t0 = Unix.gettimeofday () in
  if Sobs.Trace.enabled () then
    Sobs.Trace.begin_span ~pid:Sobs.Trace.pid_exec
      ~args:
        [
          ("stages", Sobs.Trace.Int (Stage.size graph));
          ("workers", Sobs.Trace.Int t.workers);
          ("batch_size", Sobs.Trace.Int t.batch_size);
        ]
      "run stages";
  let outcome =
    Sutil.Pool.with_pool ~workers:t.workers (fun pool ->
        let outcome =
          Scheduler.run ~machines:t.machines ~pool ?faults ~max_attempts
            ~counters:t.counters ~stage_seconds:(hist "exec.stage_seconds")
            ~stage_rows:(hist "exec.stage_rows")
            ~execute:(fun st ~read ->
              let counters = Scheduler.zero () in
              let viols = ref [] in
              let d =
                execute_stage t ~pool ~counters ~viols ~batch_rows
                  ~is_sink:(st.Stage.id = graph.Stage.sink)
                  st ~read
              in
              let sid = st.Stage.id in
              viol_slots.(sid) <- viol_slots.(sid) @ List.rev !viols;
              (* private counters join the run's record under the
                 mutex: worker domains never race on it, and sums are
                 identical at every worker count *)
              Mutex.protect t.mu (fun () -> Scheduler.add t.counters counters);
              d)
            ~rows:dist_rows graph
        in
        t.last_busy <- Sutil.Pool.busy_seconds pool;
        outcome)
  in
  if Sobs.Trace.enabled () then
    Sobs.Trace.end_span ~pid:Sobs.Trace.pid_exec "run stages";
  t.last_wall <- Unix.gettimeofday () -. t0;
  t.prop_violations <-
    t.prop_violations
    @ List.concat (Array.to_list viol_slots);
  t.last_attempts <- outcome.Scheduler.attempts;
  t.last_seconds <- outcome.Scheduler.seconds;
  outcome.Scheduler.result

(* Run a root plan; returns the outputs in OUTPUT order.  Every per-run
   accumulator is reset first, so a reused engine starts clean: no stale
   outputs or violations, and a fresh counters record covering exactly
   this run (a record read after an earlier run keeps its figures). *)
let run t (plan : Plan.t) : (string * Table.t) list =
  t.outputs_rev <- [];
  t.prop_violations <- [];
  t.last_attempts <- [||];
  t.last_seconds <- [||];
  t.last_wall <- 0.0;
  t.last_busy <- [||];
  t.counters <- Scheduler.zero ();
  ignore (execute t plan);
  List.rev t.outputs_rev
