(* The run report: every JSON document a run publishes, built here and
   nowhere else.  Sections are plain builders over the figures the
   pipeline, the executor and the serve engine already hold; callers
   pick the sections, this module names every field. *)

let schema = "scopecse-run-report/6"
let num f = Sobs.Json.Num f
let int i = num (float_of_int i)
let str s = Sobs.Json.Str s

let optimization (r : Cse.Pipeline.report) =
  Sobs.Json.Obj
    [
      ("conventional_cost", num r.Cse.Pipeline.conventional_cost);
      ("cse_cost", num r.Cse.Pipeline.cse_cost);
      ("cost_ratio", num (Cse.Pipeline.ratio r));
      ("conventional_tasks", int r.Cse.Pipeline.conventional_tasks);
      ("cse_tasks", int r.Cse.Pipeline.cse_tasks);
      ("conventional_time_s", num r.Cse.Pipeline.conventional_time);
      ("cse_time_s", num r.Cse.Pipeline.cse_time);
      ("shared_groups", int (List.length r.Cse.Pipeline.shared));
      ("rounds_executed", int r.Cse.Pipeline.rounds_executed);
      ("rounds_naive", int r.Cse.Pipeline.rounds_naive);
      ("rounds_sequential", int r.Cse.Pipeline.rounds_sequential);
      ("rounds_pruned", int r.Cse.Pipeline.rounds_pruned);
      ("rounds_aborted_bound", int r.Cse.Pipeline.rounds_aborted_bound);
      ( "phase2_winner_reuse_hits",
        int r.Cse.Pipeline.phase2_winner_reuse_hits );
      ("budget_exhausted", Sobs.Json.Bool r.Cse.Pipeline.budget_exhausted);
      ( "lcas",
        Sobs.Json.Arr
          (List.map
             (fun (s, l) ->
               Sobs.Json.Obj [ ("shared", int s); ("lca", int l) ])
             r.Cse.Pipeline.lcas) );
    ]

let execution (r : Cse.Pipeline.report) (v : Sexec.Validate.outcome) =
  let eng = v.Sexec.Validate.engine in
  let depths =
    Sexec.Stage.depths (Sexec.Stage.build r.Cse.Pipeline.cse_plan)
  in
  let stages =
    List.init (Array.length eng.Sexec.Engine.last_attempts) (fun sid ->
        Sobs.Json.Obj
          [
            ("id", int sid);
            ("depth", int depths.(sid));
            ("attempts", int eng.Sexec.Engine.last_attempts.(sid));
            ("seconds", num eng.Sexec.Engine.last_seconds.(sid));
          ])
  in
  let e = Engine.exec_summary eng in
  Sobs.Json.Obj
    [
      ("ok", Sobs.Json.Bool v.Sexec.Validate.ok);
      ("workers", int e.Cse.Pipeline.workers);
      ("batch_size", int e.Cse.Pipeline.batch_size);
      ("batches", int e.Cse.Pipeline.batches);
      ("wall_s", num e.Cse.Pipeline.wall_s);
      ( "busy_s",
        Sobs.Json.Arr (Array.to_list (Array.map num e.Cse.Pipeline.busy_s)) );
      ("utilization", num (Cse.Pipeline.utilization e));
      ("stage_count", int (Array.length eng.Sexec.Engine.last_attempts));
      ("stage_depth", int (1 + Array.fold_left max (-1) depths));
      ("stages", Sobs.Json.Arr stages);
    ]

let counters named =
  Sobs.Json.Obj
    (named
    |> List.filter (fun (_, n) -> n <> 0)
    |> List.sort compare
    |> List.map (fun (name, n) -> (name, int n)))

let metrics m = Sobs.Metrics.to_json (Sobs.Metrics.snapshot m)

let document ~machines sections =
  Sobs.Json.Obj
    (("schema", str schema) :: ("machines", int machines) :: sections)

let optimized (r : Cse.Pipeline.report) =
  [
    ("optimization", optimization r);
    ("counters", counters r.Cse.Pipeline.counters);
  ]

let run ~machines ?exec (r : Cse.Pipeline.report) =
  match exec with
  | None -> document ~machines (optimized r)
  | Some (v : Sexec.Validate.outcome) ->
      document ~machines
        [
          ("optimization", optimization r);
          ("execution", execution r v);
          ( "counters",
            counters
              (r.Cse.Pipeline.counters
              @ Sexec.Engine.named_counters
                  v.Sexec.Validate.engine.Sexec.Engine.counters) );
          ("metrics", metrics v.Sexec.Validate.engine.Sexec.Engine.metrics);
        ]

(* --- serve ------------------------------------------------------------- *)

let session (r : Engine.session_result) =
  Sobs.Json.Obj
    ((("id", str r.Engine.id)
     ::
     (match r.Engine.fingerprint with
     | None -> []
     (* fingerprints exceed double precision: keep them exact *)
     | Some fp -> [ ("fingerprint", str (string_of_int fp)) ]))
    @
    match r.Engine.status with
    | Engine.Failed msg -> [ ("status", str "failed"); ("error", str msg) ]
    | Engine.Done { cache_hit; combined } ->
        [
          ("status", str "done");
          ("cache_hit", Sobs.Json.Bool cache_hit);
          ("combined", Sobs.Json.Bool combined);
          ("conventional_cost", num r.Engine.conventional_cost);
          ("cse_cost", num r.Engine.cse_cost);
          ("outputs", int (List.length r.Engine.outputs));
          ("rows", int r.Engine.rows);
        ])

let batch (b : Engine.batch_result) =
  let opt = function None -> Sobs.Json.Null | Some c -> num c in
  Sobs.Json.Obj
    [
      ("seq", int b.Engine.seq);
      ("combined", Sobs.Json.Bool b.Engine.combined);
      ("combined_cost", opt b.Engine.combined_cost);
      ("solo_cost_sum", opt b.Engine.solo_cost_sum);
      ("cross_script_shares", int b.Engine.cross_script_shares);
      ("wall_s", num b.Engine.wall_s);
      ("sessions", Sobs.Json.Arr (List.map session b.Engine.results));
    ]

let serve ~machines ~totals batches m =
  document ~machines
    [
      ( "serve",
        Sobs.Json.Obj
          (List.map (fun (name, n) -> (name, int n)) totals
          @ [ ("batches_detail", Sobs.Json.Arr batches) ]) );
      ("metrics", metrics m);
    ]
