(* Workloads [serve_hot] and [serve_churn]: one long-lived
   [Sserve.Engine] replaying a seeded [Session_gen] stream, in a closed
   loop with one client (a batch is submitted only after the previous
   flush returned).

   [serve_hot] replays the stream as generated, after one untimed
   warm-up replay that fills the plan cache: most sessions hit, and
   normalize, cache lookup and the executor do the work.  The optimizer
   runs only for the misses after the stream's own [#catalog-bump].

   [serve_churn] inserts a [Catalog_bump] after every batch — statistics
   updates arriving beside the queries, i.e. writes against the plan
   cache — so almost every session misses, and batches with two or more
   distinct misses go through [Normalize.combine] and the combined memo.

   Every count is taken from the [batch_result]/[session_result] values
   [flush] returns: [Sserve.Engine.totals] reads process-global counters
   and would mix engines. *)

(* Submissions per generated stream (one pass).  2000 keeps the
   latency tail and the miss mix close across seeds while a run still
   holds two or more whole passes of [serve_churn], where every session
   is optimized. *)
let stream_scripts = 2000

type sub = { id : string; tenant : string; text : string }

type step = Batch of sub list | Bump

(* The protocol stream as closed-loop steps.  [churn] adds a bump after
   every batch. *)
let steps ~churn items =
  let out = ref [] and pending = ref [] and tenant = ref "default" in
  let flush () =
    if !pending <> [] then begin
      out := Batch (List.rev !pending) :: !out;
      pending := [];
      if churn then out := Bump :: !out
    end
  in
  List.iter
    (function
      | Sserve.Session.Script { id; text } ->
          pending := { id; tenant = !tenant; text } :: !pending
      | Sserve.Session.Flush | Sserve.Session.Quit -> flush ()
      | Sserve.Session.Catalog_bump ->
          flush ();
          out := Bump :: !out
      | Sserve.Session.Tenant t -> tenant := t
      | Sserve.Session.Stats | Sserve.Session.Dump -> ())
    items;
  flush ();
  Array.of_list (List.rev !out)

type env = { engine : Sserve.Engine.t; catalog : Relalg.Catalog.t; steps : step array }

let run_step engine = function
  | Batch subs ->
      List.iter
        (fun s -> Sserve.Engine.submit ~tenant:s.tenant engine ~id:s.id ~text:s.text)
        subs;
      ignore (Sserve.Engine.flush engine)
  | Bump -> ignore (Sserve.Engine.catalog_bump engine)

(* Input generation, catalog, engine and, for [serve_hot], the warm-up
   replay: the workload's set-up. *)
let setup ~churn ~workers ~seed () =
  let items =
    Sserve.Session.items_of_string
      (Sworkload.Session_gen.generate ~seed ~scripts:stream_scripts ())
  in
  let steps = steps ~churn items in
  let catalog = Sworkload.Session_gen.catalog () in
  let engine = Sserve.Engine.create ~workers catalog in
  if not churn then Array.iter (run_step engine) steps;
  { engine; catalog; steps }

(* Reference outputs once per distinct normalized script, on the
   engine's own catalog; looked up by submitted text. *)
let references env =
  let by_key = Hashtbl.create 512 and by_text = Hashtbl.create 512 in
  Array.iter
    (function
      | Batch subs ->
          List.iter
            (fun s ->
              if not (Hashtbl.mem by_text s.text) then begin
                let key = Sserve.Normalize.to_text (Sserve.Normalize.parse s.text) in
                if not (Hashtbl.mem by_key key) then
                  Hashtbl.add by_key key
                    (key, Check.expected_of_text ~catalog:env.catalog key);
                Hashtbl.add by_text s.text (Hashtbl.find by_key key)
              end)
            subs
      | Bump -> ())
    env.steps;
  by_text

type acc = {
  mutable sessions : int;
  mutable failed : int;
  mutable hits : int;
  mutable misses : int;
  mutable combined_runs : int;
  mutable shares : int;
  mutable multi_miss_batches : int;
  mutable fallbacks : int;
  mutable invalidations : int;
  mutable flush_s : float;
  mutable exec_s : float;
  mutable bump_s : float;
  mutable exec_busy : float;
  mutable exec_capacity : float;
  mutable batches : int;
}

type result = {
  sessions : int;
  steps : int;
  failed : int;
  samples : Stat.samples;  (* per step of the stream, its times *)
  step_sessions : int array;  (* sessions per step (0 for a bump) *)
  first_pass_heap_mb : float;
  layers : (string * float) list;
  errors : string list;
}

let counter name counters = Option.value ~default:0 (List.assoc_opt name counters)

(* The optimizations a batch actually ran.  [reports] holds one report
   per distinct fingerprint in submission order, then the combined run's;
   a fingerprint whose first session missed was optimized in this
   flush. *)
let fresh_reports (b : Sserve.Engine.batch_result) =
  let seen = Hashtbl.create 8 in
  let firsts =
    List.filter_map
      (fun (r : Sserve.Engine.session_result) ->
        match (r.Sserve.Engine.status, r.Sserve.Engine.fingerprint) with
        | Sserve.Engine.Done { cache_hit; _ }, Some fp
          when not (Hashtbl.mem seen fp) ->
            Hashtbl.add seen fp ();
            Some (not cache_hit)
        | _ -> None)
      b.Sserve.Engine.results
  in
  let rec go firsts reports =
    match (firsts, reports) with
    | fresh :: fs, r :: rs -> if fresh then r :: go fs rs else go fs rs
    | [], rs -> rs
    | _ :: _, [] -> []
  in
  go firsts b.Sserve.Engine.reports

(* Replay the steps.  [`Seconds s] keeps starting whole replays until
   [s] seconds of wall time have gone by; [`Units n] replays exactly [n]
   steps (a previous pass's count). *)
let pass ~sp (env : env) refs limit =
  let span ~pid name f = Spans.span sp ~pid name f in
  let a =
    {
      sessions = 0; failed = 0; hits = 0; misses = 0; combined_runs = 0;
      shares = 0; multi_miss_batches = 0; fallbacks = 0;
      invalidations = 0;
      flush_s = 0.0; exec_s = 0.0; bump_s = 0.0; exec_busy = 0.0;
      exec_capacity = 0.0; batches = 0;
    }
  in
  let opt = Optcount.create () in
  let n = Array.length env.steps in
  let first_combined = ref 0.0 and first_solo = ref 0.0 in
  let start = Unix.gettimeofday () in
  let done_ = ref 0 and heap = ref 0.0 in
  let samples = Stat.samples_create n and errors = ref [] in
  let continue () =
    match limit with
    | `Seconds s -> !done_ mod n <> 0 || Unix.gettimeofday () -. start < s
    | `Units k -> !done_ < k
  in
  while continue () do
    let first_replay = !done_ < n in
    (match env.steps.(!done_ mod n) with
    | Bump ->
        let t0 = Unix.gettimeofday () in
        let purged =
          span ~pid:0 "serve.catalog_bump_ms" (fun () ->
              Sserve.Engine.catalog_bump env.engine)
        in
        let dt = Unix.gettimeofday () -. t0 in
        Stat.note samples ~pass:(!done_ / n) (!done_ mod n) dt;
        Stat.maybe_probe samples ~pass:(!done_ / n);
        a.bump_s <- a.bump_s +. dt;
        a.invalidations <- a.invalidations + purged
    | Batch subs ->
        (* the traced pass probes the normalize layer with the calls
           flush makes per session (parse, canonical text, cache key),
           outside the measured time *)
        if sp.Spans.on then begin
          let version = Relalg.Catalog.version env.catalog in
          List.iter
            (fun s ->
              span ~pid:0 "serve.normalize_ms" (fun () ->
                  Sserve.Plan_cache.key ~catalog_version:version
                    (Sserve.Normalize.to_text (Sserve.Normalize.parse s.text)))
              |> ignore)
            subs
        end;
        let t0 = Unix.gettimeofday () in
        let b =
          span ~pid:0 "serve.flush_ms" (fun () ->
              List.iter
                (fun s ->
                  Sserve.Engine.submit ~tenant:s.tenant env.engine ~id:s.id
                    ~text:s.text)
                subs;
              Sserve.Engine.flush env.engine)
        in
        let dt = Unix.gettimeofday () -. t0 in
        Stat.note samples ~pass:(!done_ / n) (!done_ mod n) dt;
        Stat.maybe_probe samples ~pass:(!done_ / n);
        let b = Option.get b in
        let fresh = fresh_reports b in
        (* checking and accounting, outside the measured time *)
        let misses = ref 0 in
        List.iter2
          (fun s (r : Sserve.Engine.session_result) ->
            a.sessions <- a.sessions + 1;
            match r.Sserve.Engine.status with
            | Sserve.Engine.Failed msg ->
                a.failed <- a.failed + 1;
                errors := Printf.sprintf "%s: failed: %s" s.id msg :: !errors
            | Sserve.Engine.Done { cache_hit; _ } ->
                if cache_hit then a.hits <- a.hits + 1
                else (a.misses <- a.misses + 1; incr misses);
                if not (Check.matches (snd (Hashtbl.find refs s.text)) r.Sserve.Engine.outputs)
                then begin
                  a.failed <- a.failed + 1;
                  errors :=
                    Printf.sprintf "%s: outputs differ from the reference evaluator"
                      s.id
                    :: !errors
                end)
          subs b.Sserve.Engine.results;
        if !misses >= 2 then begin
          a.multi_miss_batches <- a.multi_miss_batches + 1;
          if not b.Sserve.Engine.combined then a.fallbacks <- a.fallbacks + 1
        end;
        if b.Sserve.Engine.combined then a.combined_runs <- a.combined_runs + 1;
        a.shares <- a.shares + b.Sserve.Engine.cross_script_shares;
        (match (b.Sserve.Engine.combined_cost, b.Sserve.Engine.solo_cost_sum) with
        | Some c, Some s when first_replay ->
            first_combined := !first_combined +. c;
            first_solo := !first_solo +. s
        | _ -> ());
        a.flush_s <- a.flush_s +. dt;
        a.exec_s <- a.exec_s +. b.Sserve.Engine.wall_s;
        a.batches <- a.batches + counter "exec.batches" b.Sserve.Engine.counters;
        List.iter (Optcount.add opt) fresh;
        (* executor utilization over the last run of each distinct plan
           behind the batch: the figures flush hands back per report *)
        List.iter
          (fun (r : Cse.Pipeline.report) ->
            match r.Cse.Pipeline.exec with
            | Some e ->
                a.exec_busy <- a.exec_busy +. Array.fold_left ( +. ) 0.0 e.Cse.Pipeline.busy_s;
                a.exec_capacity <-
                  a.exec_capacity
                  +. e.Cse.Pipeline.wall_s *. float_of_int (Array.length e.Cse.Pipeline.busy_s)
            | None -> ())
          b.Sserve.Engine.reports;
        Spans.note sp ~pid:0 "serve.flush_figures"
          [
            ("exec_wall_ms", Sobs.Trace.Float (1000.0 *. b.Sserve.Engine.wall_s));
            ("optimizations", Sobs.Trace.Int (List.length fresh));
            ("combined", Sobs.Trace.Int (if b.Sserve.Engine.combined then 1 else 0));
          ]);
    incr done_;
    if !done_ = n then heap := Stat.top_heap_mb ()
  done;
  let ratio = Optcount.ratio in
  let fratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_session x = x /. float_of_int (max 1 a.sessions) in
  let ms x = per_session (1000.0 *. x) in
  {
    sessions = a.sessions;
    steps = !done_;
    failed = a.failed;
    samples;
    step_sessions =
      Array.map (function Batch subs -> List.length subs | Bump -> 0) env.steps;
    first_pass_heap_mb = !heap;
    layers =
      Optcount.layers opt ~items:a.sessions
      @ [
        ("exec.run_ms", ms a.exec_s);
        ("exec.util", fratio a.exec_busy a.exec_capacity);
        ("exec.batches", per_session (float_of_int a.batches));
        ("serve.flush_ms", ms a.flush_s);
        ("serve.flush_non_exec_ms", ms (a.flush_s -. a.exec_s));
        ("serve.catalog_bump_ms", ms a.bump_s);
        ("serve.cache_hit_ratio", ratio a.hits (a.hits + a.misses));
        ("serve.combined_runs", float_of_int a.combined_runs);
        ("serve.cross_script_shares", float_of_int a.shares);
        ("serve.combine_fallback_ratio", ratio a.fallbacks a.multi_miss_batches);
        ("serve.invalidations", float_of_int a.invalidations);
        (* over the first whole replay, so it is deterministic *)
        ("serve.share_cost_ratio",
         if !first_solo = 0.0 then 1.0 else !first_combined /. !first_solo);
      ];
    errors = List.rev !errors;
  }
