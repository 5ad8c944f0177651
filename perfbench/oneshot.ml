(* Workload [oneshot_ls]: what [scopeopt run --audit] does to one
   LS-scale script, in a closed loop with one client.

   The script set is the paper's LS1 and LS2 plus seed-drawn variants of
   the same [Large_gen] structure.  Variant operator targets are
   stratified over LS1's 101 .. LS2's 1034 (one target per equal-width
   stratum, jittered inside it) and consumer counts are dealt from a
   balanced 2-5 mix, so every seed carries the same amount of work and
   the spread across seeds stays small; shared groups scale with the
   target.  Each script goes text ->
   [Cse.Pipeline.run] -> [Sanalysis.Audit.report ~deep:true] -> a fresh
   [Sexec.Engine] running the CSE plan.  Phase 2, the deep audit and
   cold extraction in the fresh engine all block the result; the serve
   layers are idle. *)

let cluster = Scost.Cluster.default

let variants = 6

type script = {
  spec : Sworkload.Large_gen.spec;
  text : string;
  catalog : Relalg.Catalog.t;
}

let lo = Sworkload.Large_gen.ls1_spec.Sworkload.Large_gen.target_ops
let hi = Sworkload.Large_gen.ls2_spec.Sworkload.Large_gen.target_ops

(* Variant [i] of [variants]: its operator target lies in the i-th
   stratum of [lo, hi].  Shared-group count and filler input size are
   interpolated between the LS1 and LS2 specs at the same position. *)
let variant rng i : Sworkload.Large_gen.spec =
  let frac = (float_of_int i +. Sutil.Rng.float rng 1.0) /. float_of_int variants in
  let groups = 4 + int_of_float (Float.round (13.0 *. frac)) in
  let ls1 = Sworkload.Large_gen.ls1_spec and ls2 = Sworkload.Large_gen.ls2_spec in
  {
    Sworkload.Large_gen.name = Printf.sprintf "LSV%d" i;
    (* 2, 3, 4 and 5 consumers in turn, dealt to the groups in seeded
       order: the seed moves which module shares how much, not how much
       sharing the script has in total *)
    shared_consumers =
      Array.to_list
        (Sutil.Rng.shuffle rng (Array.init groups (fun j -> 2 + (j mod 4))));
    target_ops = lo + int_of_float (frac *. float_of_int (hi - lo));
    duplicate_modules = (if groups < 10 then [ 1 ] else [ 3; 9 ]);
    shared_rows = ls1.Sworkload.Large_gen.shared_rows;
    filler_rows =
      int_of_float
        (float_of_int ls1.Sworkload.Large_gen.filler_rows
        *. Float.pow
             (float_of_int ls2.Sworkload.Large_gen.filler_rows
             /. float_of_int ls1.Sworkload.Large_gen.filler_rows)
             frac);
  }

(* Input generation and catalogs: the workload's set-up. *)
let setup ~seed () =
  let rng = Sutil.Rng.create seed in
  let specs =
    Sworkload.Large_gen.ls1_spec :: Sworkload.Large_gen.ls2_spec
    :: List.init variants (variant rng)
  in
  Array.map
    (fun (spec : Sworkload.Large_gen.spec) ->
      let text = Sworkload.Large_gen.generate spec in
      let catalog = Relalg.Catalog.default () in
      Sworkload.Large_gen.register_files
        ~shared_rows:spec.Sworkload.Large_gen.shared_rows
        ~filler_rows:spec.Sworkload.Large_gen.filler_rows catalog text;
      { spec; text; catalog })
    (Sutil.Rng.shuffle rng (Array.of_list specs))

let references scripts =
  Array.map
    (fun s -> Check.expected_of_text ~catalog:s.catalog s.text)
    scripts

(* The traced pass's frontend spans: the parse, bind and memo build
   [Cse.Pipeline.run] makes (it builds the memo twice), each called once
   more on its own so it gets a span of its own.  They run outside the
   measured time. *)
let frontend_spans sp s =
  let fe = Sobs.Trace.pid_frontend in
  let ast =
    Spans.span sp ~pid:fe "frontend.parse_ms" (fun () ->
        Slang.Parser.parse_script s.text)
  in
  let dag =
    Spans.span sp ~pid:fe "frontend.bind_ms" (fun () ->
        Slogical.Binder.bind ~catalog:s.catalog ast)
  in
  ignore
    (Spans.span sp ~pid:fe "frontend.memo_ms" (fun () ->
         Smemo.Memo.of_dag ~catalog:s.catalog
           ~machines:cluster.Scost.Cluster.machines dag))

(* Per-layer counts accumulated over a pass. *)
type acc = {
  mutable audit_errors : int;
  mutable exec_busy : float;
  mutable exec_capacity : float;  (* wall x workers *)
  mutable batches : int;
  mutable rows_extracted : int;
  mutable rows_shuffled : int;
  mutable spool_reads : int;
  mutable spool_executions : int;
}

type result = {
  scripts : int;
  failed : int;
  samples : Stat.samples;  (* per script of the set, its latencies *)
  first_pass_heap_mb : float;
  costs : (float * float) list;
      (* first pass, per script of the set: cse cost, conventional cost *)
  layers : (string * float) list;
  errors : string list;
}

(* Run whole passes over the script set.  [`Seconds s] keeps starting
   passes until [s] seconds of wall time have gone by; [`Units n]
   replays exactly [n] scripts (a previous pass's count). *)
let pass ~workers ~sp scripts refs limit =
  let acc =
    {
      audit_errors = 0; exec_busy = 0.0;
      exec_capacity = 0.0; batches = 0; rows_extracted = 0;
      rows_shuffled = 0; spool_reads = 0; spool_executions = 0;
    }
  in
  let opt = Optcount.create () in
  let n = Array.length scripts in
  let start = Unix.gettimeofday () in
  let done_ = ref 0 and failed = ref 0 in
  let samples = Stat.samples_create n and heap = ref 0.0 in
  let costs = ref [] and errors = ref [] in
  let continue () =
    match limit with
    | `Seconds s -> !done_ mod n <> 0 || Unix.gettimeofday () -. start < s
    | `Units k -> !done_ < k
  in
  while continue () do
    let i = !done_ mod n in
    let s = scripts.(i) in
    if sp.Spans.on then frontend_spans sp s;
    let t0 = Unix.gettimeofday () in
    let report, diags, engine, outputs =
      Spans.span sp ~pid:0 "oneshot.script" (fun () ->
          let report =
            Spans.span sp ~pid:Sobs.Trace.pid_phase2 "optimizer.pipeline"
              (fun () -> Cse.Pipeline.run ~cluster ~catalog:s.catalog s.text)
          in
          let diags =
            Spans.span sp ~pid:0 "audit.deep_ms" (fun () ->
                Sanalysis.Audit.report ~deep:true ~cluster ~catalog:s.catalog
                  report)
          in
          let engine, outputs =
            Spans.span sp ~pid:Sobs.Trace.pid_exec "exec.run_ms" (fun () ->
                let engine =
                  Sexec.Engine.create ~workers
                    ~machines:cluster.Scost.Cluster.machines s.catalog
                in
                (engine, Sexec.Engine.run engine report.Cse.Pipeline.cse_plan))
          in
          (report, diags, engine, outputs))
    in
    let dt = Unix.gettimeofday () -. t0 in
    (* the traced pass's stage-build span, outside the measured time:
       [Engine.run] builds the stage graph again inside [exec.run_ms] *)
    if sp.Spans.on then
      ignore
        (Spans.span sp ~pid:Sobs.Trace.pid_stage "exec.stage_build_ms"
           (fun () -> Sexec.Stage.build report.Cse.Pipeline.cse_plan));
    Spans.note sp ~pid:Sobs.Trace.pid_phase2 "optimizer.figures"
      [
        ("conventional_ms",
         Sobs.Trace.Float (1000.0 *. report.Cse.Pipeline.conventional_time));
        ("cse_ms", Sobs.Trace.Float (1000.0 *. report.Cse.Pipeline.cse_time));
      ];
    Stat.note samples ~pass:(!done_ / n) i dt;
    Stat.maybe_probe samples ~pass:(!done_ / n);
    incr done_;
    if !done_ = n then heap := Stat.top_heap_mb ();
    (* checking, outside the measured time *)
    let errs = Sanalysis.Diag.errors diags in
    let ok = Check.matches refs.(i) outputs in
    if errs <> [] || not ok then begin
      incr failed;
      errors :=
        Printf.sprintf "%s: %s" s.spec.Sworkload.Large_gen.name
          (if ok then Printf.sprintf "%d audit error(s)" (List.length errs)
           else "outputs differ from the reference evaluator")
        :: !errors
    end;
    let r = report in
    if !done_ <= n then
      costs :=
        (r.Cse.Pipeline.cse_cost, r.Cse.Pipeline.conventional_cost) :: !costs;
    Optcount.add opt r;
    acc.audit_errors <- acc.audit_errors + List.length errs;
    let e = engine in
    acc.exec_busy <-
      acc.exec_busy +. Array.fold_left ( +. ) 0.0 e.Sexec.Engine.last_busy;
    acc.exec_capacity <-
      acc.exec_capacity
      +. e.Sexec.Engine.last_wall
         *. float_of_int (Array.length e.Sexec.Engine.last_busy);
    let c = e.Sexec.Engine.counters in
    acc.batches <- acc.batches + c.Sexec.Engine.batches;
    acc.rows_extracted <- acc.rows_extracted + c.Sexec.Engine.rows_extracted;
    acc.rows_shuffled <- acc.rows_shuffled + c.Sexec.Engine.rows_shuffled;
    acc.spool_reads <- acc.spool_reads + c.Sexec.Engine.spool_reads;
    acc.spool_executions <- acc.spool_executions + c.Sexec.Engine.spool_executions
  done;
  let ratio = Optcount.ratio in
  let fratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_script = float_of_int (max 1 !done_) in
  {
    scripts = !done_;
    failed = !failed;
    samples;
    first_pass_heap_mb = !heap;
    costs = List.rev !costs;
    layers =
      Optcount.layers opt ~items:!done_
      @ [
        ("audit.errors", float_of_int acc.audit_errors);
        ("exec.util", fratio acc.exec_busy acc.exec_capacity);
        ("exec.batches", float_of_int acc.batches /. per_script);
        ("exec.rows_extracted", float_of_int acc.rows_extracted /. per_script);
        ("exec.rows_shuffled", float_of_int acc.rows_shuffled /. per_script);
        ("exec.spool_reads_per_execution",
         ratio acc.spool_reads acc.spool_executions);
      ];
    errors = List.rev !errors;
  }
