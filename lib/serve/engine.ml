(* The long-running serve engine: accepts a stream of script
   submissions, consults the plan cache, batches concurrently-submitted
   fresh scripts into one combined memo so phase 2 detects common
   subexpressions *across* scripts, and executes everything on one
   persistent executor.

   Per flushed batch:

   1. parse + normalize each pending script; a parse failure fails that
      session only;
   2. classify against the cache.  A hit reuses the cached pipeline
      report — parse happened but bind/optimize are skipped.  The first
      occurrence of a fresh normalized text is a miss and is solo-optimized
      to populate the cache (so later submissions anywhere in the stream
      reuse it); further occurrences in the same batch count as hits;
   3. execute.  Hits and duplicates run their cached [cse_plan]
      individually.  When the batch holds two or more distinct misses,
      their normalized scripts are combined into one script
      ([Normalize.combine]) and optimized as one memo: structurally
      identical subexpressions fingerprint-merge across scripts, so a
      shared scan spools once in a single executor pass.  The combined
      run's outputs are split positionally back to sessions.  Combined
      plans are never cached — only solo optimizations populate the
      cache, so a cache entry always means "this script alone".

   Failures are contained per session or per batch: a combined run that
   misbehaves (optimizer failure, output-count mismatch) falls back to
   executing each miss's cached solo plan. *)

(* Every figure the engine counts lives in its own [Sobs.Metrics]
   registry: batches, submissions and outcomes, cache hits, misses and
   invalidations, combined runs and cross-script shares, per-path
   end-to-end session latency histograms, cache occupancy gauges and
   per-tenant traffic counters.  The executor records its exec.*
   distributions into the same registry.  Per-engine, so tests and
   embedded engines never see each other's readings; [totals] reads it
   too.

   Invariants the SA046 audit holds a snapshot to:
   every session lands in [serve.sessions_submitted]; failures land in
   [serve.sessions_failed]; every non-failed session is exactly one of
   [serve.cache_hits]/[serve.cache_misses] and observes exactly one
   latency histogram path (hit / share / miss); the [serve.cache_size]
   gauge equals the plan cache's entry count. *)

let path_label = function
  | `Hit -> "hit"  (* plan cache hit (or within-batch duplicate) *)
  | `Share -> "share"  (* executed via the combined cross-script run *)
  | `Miss -> "miss"  (* solo-optimized and solo-executed *)

type status = Done of { cache_hit : bool; combined : bool } | Failed of string

type session_result = {
  id : string;
  fingerprint : int option;  (* [None] when parsing failed *)
  status : status;
  conventional_cost : float;  (* solo costs from the cache entry *)
  cse_cost : float;
  budget_exhausted : bool;  (* of the run whose plan gave the outputs *)
  outputs : (string * Relalg.Table.t) list;  (* statement order *)
  rows : int;  (* total rows across outputs *)
}

type batch_result = {
  seq : int;  (* 1-based batch number *)
  results : session_result list;  (* submission order *)
  combined : bool;
  combined_cost : float option;  (* DAG cost of the combined plan *)
  solo_cost_sum : float option;  (* sum of the combined members' solo costs *)
  cross_script_shares : int;  (* spools read by >= 2 sessions *)
  counters : (string * int) list;
      (* executor counters summed over this flush's runs, plus the
         counters of its fresh optimizations *)
  wall_s : float;  (* executor wall seconds, summed over runs *)
  attempts : int array list;  (* per-run stage attempts, for trace audit *)
  reports : Cse.Pipeline.report list;
      (* distinct optimizations behind this batch (one per distinct
         cache entry, plus the combined run) — audit targets *)
}

type t = {
  catalog : Relalg.Catalog.t;
  cluster : Scost.Cluster.t;
  config : Cse.Config.t;
  max_tasks : int option;
  cache : Plan_cache.t;
  exec : Sexec.Engine.t;
  mutable pending : (string * string * string) list;
      (* (id, tenant, text), reversed *)
}

let create ?(config = Cse.Config.default) ?max_tasks
    ?(cluster = Scost.Cluster.default) ?(workers = 1) ?batch_size ?faults
    (catalog : Relalg.Catalog.t) =
  {
    catalog;
    cluster;
    config;
    max_tasks;
    cache = Plan_cache.create ();
    exec =
      Sexec.Engine.create ~workers ?batch_size ?faults
        ~machines:cluster.Scost.Cluster.machines catalog;
    pending = [];
  }

let cache t = t.cache
let catalog t = t.catalog
let cluster t = t.cluster
let metrics t = t.exec.Sexec.Engine.metrics

let default_tenant = "default"

let submit ?(tenant = default_tenant) t ~id ~text =
  t.pending <- (id, tenant, text) :: t.pending

let pending_count t = List.length t.pending

let catalog_bump t =
  Relalg.Catalog.bump_version t.catalog;
  let purged =
    Plan_cache.purge_stale t.cache
      ~current_version:(Relalg.Catalog.version t.catalog)
  in
  Sobs.Metrics.bump (metrics t) "serve.cache_invalidations" ~by:purged;
  purged

(* A fresh budget per optimization: budgets are mutable task counters,
   so sharing one across pipeline runs would starve later scripts. *)
let budget t =
  Option.map (fun max_tasks -> Sopt.Budget.create ~max_tasks ()) t.max_tasks

let describe = function
  | Failure m -> m
  | Cse.Pipeline.No_plan m -> m
  | Slang.Parser.Error (m, _) -> m
  | Slogical.Binder.Error m -> m
  | e -> Printexc.to_string e

let exec_summary (e : Sexec.Engine.t) =
  {
    Cse.Pipeline.workers = e.Sexec.Engine.workers;
    batch_size = e.Sexec.Engine.batch_size;
    batches = e.Sexec.Engine.counters.Sexec.Engine.batches;
    wall_s = e.Sexec.Engine.last_wall;
    busy_s = e.Sexec.Engine.last_busy;
  }

(* Record the executor's figures for the run that just finished into the
   report, and account wall time, stage attempts and counters to the
   batch. *)
let note_run t wall attempts counts (report : Cse.Pipeline.report) =
  report.Cse.Pipeline.exec <- Some (exec_summary t.exec);
  wall := !wall +. t.exec.Sexec.Engine.last_wall;
  attempts := t.exec.Sexec.Engine.last_attempts :: !attempts;
  counts := Sexec.Engine.named_counters t.exec.Sexec.Engine.counters :: !counts

(* Named counter lists summed by name: the nonzero totals, sorted. *)
let sum_counters lists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, n) ->
         Hashtbl.replace tbl name
           (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))))
    lists;
  List.sort compare
    (Hashtbl.fold (fun name n acc -> if n = 0 then acc else (name, n) :: acc)
       tbl [])

(* Distinct spool nodes (physical identity) reachable from [roots]. *)
let spool_set roots =
  let spools = ref [] in
  Sphys.Plan.iter_distinct
    (fun n ->
      match n.Sphys.Plan.op with
      | Sphys.Physop.P_spool -> spools := n :: !spools
      | _ -> ())
    roots;
  !spools

(* Split [xs] into consecutive slices of the given lengths; [None] when
   the total does not add up. *)
let split_by counts xs =
  let rec take n xs acc =
    if n = 0 then Some (List.rev acc, xs)
    else match xs with [] -> None | x :: rest -> take (n - 1) rest (x :: acc)
  in
  let rec go counts xs acc =
    match counts with
    | [] -> if xs = [] then Some (List.rev acc) else None
    | c :: rest -> (
        match take c xs [] with
        | None -> None
        | Some (slice, xs') -> go rest xs' (slice :: acc))
  in
  go counts xs []

(* Spools referenced by at least two of the per-session plan slices: the
   cross-script sharing the combined memo bought us. *)
let cross_script_spools (plan : Sphys.Plan.t) output_counts =
  let children =
    match plan.Sphys.Plan.op with
    | Sphys.Physop.P_sequence -> plan.Sphys.Plan.children
    | _ -> [ plan ]
  in
  match split_by output_counts children with
  | None -> 0
  | Some slices ->
      (* spool -> number of slices reaching it *)
      let slices_of = Sphys.Plan.Tbl.create 16 in
      List.iter
        (fun slice ->
          List.iter
            (fun s ->
              Sphys.Plan.Tbl.replace slices_of s
                (1
                + Option.value ~default:0
                    (Sphys.Plan.Tbl.find_opt slices_of s)))
            (spool_set slice))
        slices;
      Sphys.Plan.Tbl.fold
        (fun _ n acc -> if n >= 2 then acc + 1 else acc)
        slices_of 0

(* One successfully-parsed submission, with its cache entry. *)
type classified = {
  c_id : string;
  c_tenant : string;
  c_entry : Plan_cache.entry;
  c_norm : Slang.Ast.script;
  c_hit : bool;  (* found in cache, or a within-batch duplicate *)
  c_opt_s : float;  (* wall seconds spent classifying (parse .. optimize) *)
}

(* [combined] is the combined run's report when its plan gave
   [outputs]; otherwise the cache entry's plan did. *)
let result_of ?combined (c : classified) outputs =
  let e = c.c_entry in
  let ran = Option.value combined ~default:e.Plan_cache.report in
  {
    id = c.c_id;
    fingerprint = Some e.Plan_cache.fingerprint;
    status = Done { cache_hit = c.c_hit; combined = combined <> None };
    conventional_cost = e.Plan_cache.report.Cse.Pipeline.conventional_cost;
    cse_cost = e.Plan_cache.report.Cse.Pipeline.cse_cost;
    budget_exhausted = ran.Cse.Pipeline.budget_exhausted;
    outputs;
    rows =
      List.fold_left
        (fun acc (_, tbl) -> acc + Relalg.Table.cardinality tbl)
        0 outputs;
  }

let flush t : batch_result option =
  let pending = List.rev t.pending in
  t.pending <- [];
  if pending = [] then None
  else begin
    Sobs.Metrics.bump (metrics t) "serve.batches";
    let version = Relalg.Catalog.version t.catalog in
    let wall = ref 0.0 and attempts = ref [] and exec_counts = ref [] in
    (* classify in submission order; the first occurrence of a fresh
       normalized text solo-optimizes and populates the cache *)
    let classified =
      List.map
        (fun (id, tenant, text) ->
          let ct0 = Unix.gettimeofday () in
          match
            let norm = Normalize.parse text in
            let ntext = Normalize.to_text norm in
            let mk e hit =
              {
                c_id = id;
                c_tenant = tenant;
                c_entry = e;
                c_norm = norm;
                c_hit = hit;
                c_opt_s = Unix.gettimeofday () -. ct0;
              }
            in
            match Plan_cache.find t.cache ~catalog_version:version ntext with
            | Some e -> mk e true
            | None ->
                let report =
                  Cse.Pipeline.run ~config:t.config ?budget:(budget t)
                    ~cluster:t.cluster ~catalog:t.catalog ntext
                in
                let e =
                  {
                    Plan_cache.fingerprint =
                      Plan_cache.key ~catalog_version:version ntext;
                    normalized = ntext;
                    outputs = Normalize.outputs_of norm;
                    catalog_version = version;
                    report;
                  }
                in
                Plan_cache.add t.cache e;
                mk e false
          with
          | c -> Ok c
          | exception e -> Error (id, tenant, describe e))
        pending
    in
    (* per-engine accounting: submissions, outcomes, per-tenant traffic.
       Bumped here (after classification, before execution) so a failed
       session is never also a hit or a miss — the SA046 invariant. *)
    List.iter
      (fun c ->
        let m = metrics t in
        match c with
        | Ok c ->
            Sobs.Metrics.bump m "serve.sessions_submitted";
            Sobs.Metrics.bump m "serve.tenant_submitted"
              ~labels:[ ("tenant", c.c_tenant) ];
            Sobs.Metrics.bump m
              (if c.c_hit then "serve.cache_hits" else "serve.cache_misses")
        | Error (_, tenant, _) ->
            Sobs.Metrics.bump m "serve.sessions_submitted";
            Sobs.Metrics.bump m "serve.tenant_submitted"
              ~labels:[ ("tenant", tenant) ];
            Sobs.Metrics.bump m "serve.sessions_failed")
      classified;
    (* the actual misses, one per fresh normalized text, in batch order *)
    let misses =
      List.filter_map
        (function Ok c when not c.c_hit -> Some c | _ -> None)
        classified
    in
    let combined_info =
      if List.length misses < 2 then None
      else
        (* combine the misses into one memo; fingerprints merge common
           subexpressions across the scripts, so shared scans spool once *)
        let combined_text =
          Normalize.to_text
            (Normalize.combine (List.map (fun c -> c.c_norm) misses))
        in
        match
          Cse.Pipeline.run ~config:t.config ?budget:(budget t)
            ~cluster:t.cluster ~catalog:t.catalog combined_text
        with
        | exception _ -> None (* combined optimization failed: solo runs *)
        | report -> (
            (* executor failures, recovery exhaustion included, propagate *)
            let outs = Sexec.Engine.run t.exec report.Cse.Pipeline.cse_plan in
            note_run t wall attempts exec_counts report;
            let combined_wall = t.exec.Sexec.Engine.last_wall in
            let counts =
              List.map (fun c -> c.c_entry.Plan_cache.outputs) misses
            in
            match split_by counts outs with
            | None -> None (* output miscount: fall back to solo runs *)
            | Some slices ->
                let shares =
                  cross_script_spools report.Cse.Pipeline.cse_plan counts
                in
                Sobs.Metrics.bump (metrics t) "serve.cross_script_shares"
                  ~by:shares;
                Sobs.Metrics.bump (metrics t) "serve.combined_runs";
                let per_session =
                  List.map2
                    (fun c slice ->
                      ( c,
                        List.map
                          (fun (f, tbl) -> (Normalize.untag_output f, tbl))
                          slice ))
                    misses slices
                in
                Some (report, shares, per_session, combined_wall))
    in
    (* the combined run's report, wall and outputs for a session it
       served *)
    let shared c =
      Option.bind combined_info (fun (report, _, per, wall) ->
          Option.map (fun outs -> (report, wall, outs)) (List.assq_opt c per))
    in
    (* One latency observation and one served/rows/bytes accounting per
       executed session: end-to-end seconds (classification plus the
       wall of the run that produced its outputs) in the histogram of
       its execution path — exactly one of hit / share / miss. *)
    let note_served (c : classified) path exec_wall (r : session_result) =
      let m = metrics t in
      Sobs.Metrics.observe m "serve.session_seconds"
        ~labels:[ ("path", path_label path) ]
        (c.c_opt_s +. exec_wall);
      let tenant = [ ("tenant", c.c_tenant) ] in
      Sobs.Metrics.bump m "serve.tenant_served" ~labels:tenant;
      Sobs.Metrics.bump m "serve.tenant_rows" ~labels:tenant ~by:r.rows;
      let bytes =
        List.fold_left
          (fun acc (_, tbl) ->
            acc
            + Relalg.Table.cardinality tbl
              * List.length tbl.Relalg.Table.schema
              * 8)
          0 r.outputs
      in
      Sobs.Metrics.bump m "serve.tenant_bytes" ~labels:tenant ~by:bytes;
      r
    in
    let results =
      List.map
        (function
          | Error (id, _, msg) ->
              {
                id;
                fingerprint = None;
                status = Failed msg;
                conventional_cost = 0.0;
                cse_cost = 0.0;
                budget_exhausted = false;
                outputs = [];
                rows = 0;
              }
          | Ok c -> (
              match shared c with
              | Some (report, wall, outs) ->
                  note_served c `Share wall (result_of ~combined:report c outs)
              | None ->
                  (* cache hits, within-batch duplicates, single miss, or
                     combined-run fallback: run the cached solo plan *)
                  let outs =
                    Sexec.Engine.run t.exec
                      c.c_entry.Plan_cache.report.Cse.Pipeline.cse_plan
                  in
                  note_run t wall attempts exec_counts
                    c.c_entry.Plan_cache.report;
                  note_served c
                    (if c.c_hit then `Hit else `Miss)
                    t.exec.Sexec.Engine.last_wall
                    (result_of c outs)))
        classified
    in
    (* occupancy gauges reflect the cache as of the end of this flush *)
    Sobs.Metrics.set (metrics t) "serve.cache_size"
      (float_of_int (Plan_cache.size t.cache));
    let m_hits = Sobs.Metrics.get (metrics t) "serve.cache_hits" in
    let m_misses = Sobs.Metrics.get (metrics t) "serve.cache_misses" in
    if m_hits + m_misses > 0 then
      Sobs.Metrics.set (metrics t) "serve.cache_hit_ratio"
        (float_of_int m_hits /. float_of_int (m_hits + m_misses));
    (* distinct optimizations behind this batch, for auditing: one per
       distinct cache entry (cached plans included), plus the combined
       run *)
    let reports =
      let seen = Hashtbl.create 8 in
      List.filter_map
        (function
          | Error _ -> None
          | Ok c ->
              let text = c.c_entry.Plan_cache.normalized in
              if Hashtbl.mem seen text then None
              else (
                Hashtbl.add seen text ();
                Some c.c_entry.Plan_cache.report))
        classified
      @ match combined_info with Some (r, _, _, _) -> [ r ] | None -> []
    in
    Some
      {
        seq = Sobs.Metrics.get (metrics t) "serve.batches";
        results;
        combined = combined_info <> None;
        combined_cost =
          Option.map
            (fun (r, _, _, _) -> r.Cse.Pipeline.cse_cost)
            combined_info;
        solo_cost_sum =
          (match combined_info with
          | None -> None
          | Some _ ->
              Some
                (List.fold_left
                   (fun acc c ->
                     acc +. c.c_entry.Plan_cache.report.Cse.Pipeline.cse_cost)
                   0.0 misses));
        cross_script_shares =
          (match combined_info with Some (_, s, _, _) -> s | None -> 0);
        counters =
          sum_counters
            (!exec_counts
            @ List.map
                (fun (r : Cse.Pipeline.report) -> r.Cse.Pipeline.counters)
                (List.map (fun c -> c.c_entry.Plan_cache.report) misses
                @ match combined_info with
                  | Some (r, _, _, _) -> [ r ]
                  | None -> []));
        wall_s = !wall;
        attempts = List.rev !attempts;
        reports;
      }
  end

let totals t =
  let get = Sobs.Metrics.get (metrics t) in
  [
    ("sessions", get "serve.sessions_submitted");
    ("batches", get "serve.batches");
    ("cache_hits", get "serve.cache_hits");
    ("cache_misses", get "serve.cache_misses");
    ("cache_invalidations", get "serve.cache_invalidations");
    ("cache_size", Plan_cache.size t.cache);
    ("combined_runs", get "serve.combined_runs");
    ("cross_script_shares", get "serve.cross_script_shares");
  ]
