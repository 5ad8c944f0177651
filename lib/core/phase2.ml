open Sphys
open Sopt

(* The re-optimization framework (Algorithms 4 and 5), realized as an
   extension of the generic optimization engine, which runs three passes
   over one memo with spools:

   - phase 0, the conventional pass: [intercept] answers every shared
     (spool) group with its child's winner under the same requirement, so
     spools are transparent and a shared relation is computed once per
     consumer (Figure 8(a));
   - Algorithm 3 then runs, and a group with no shared group below it
     answers phases 1-2 with its phase-0 winner;
   - phase 1 records the property history of shared groups (Section V)
     in [intercept];
   - [child_extreq] propagates the enforcement map downwards, pruned to
     paths that still lead to one of the enforced shared groups
     (Algorithm 5, lines 15-17), so rounds that differ only in the pins
     of groups not below a child ask for the same child key and reuse
     its winner;
   - [intercept] implements the two special cases of Algorithm 4:
       * at a shared group with a pinned property set, the base plan is
         optimized once under the pinned properties (so every consumer
         shares the identical materialization) and per-consumer enforcers
         are layered on top when the consumer needs more (e.g. the
         Sort(C,B) above the spool in Figure 8(b));
       * at an LCA, [run_rounds] prepares the candidate property sets
         and [Rounds.search] drives one probe per combination (Section
         VIII orders them, the budget cuts them off); the probe
         re-optimizes the LCA under the combination, bounded by the
         search, and the cheapest result is kept.

   The cheapest of the three passes' plans is the result, so the CSE plan
   never costs more than the conventional one. *)

let log_src = Logs.Src.create "scopecse.phase2" ~doc:"CSE re-optimization"

module Log = (val Logs.src_log log_src : Logs.LOG)

let pp_assignment assignment =
  String.concat "; "
    (List.map
       (fun (s, props) -> Fmt.str "%d -> %a" s Sphys.Reqprops.pp props)
       assignment)

type state = {
  config : Config.t;
  history : History.t;
  mutable si : Shared_info.t option;
  mutable rounds_executed : int;
  mutable rounds_naive : int; (* full-product round count, for ablations *)
  mutable rounds_sequential : int; (* VIII-A round count, before pruning *)
  mutable rounds_pruned : int;
      (* sequential rounds removed by dominance filtering of candidates *)
  mutable rounds_aborted_bound : int;
      (* rounds cut short by the branch-and-bound incumbent check *)
  mutable pruned_props : (int * (Reqprops.t * Reqprops.t) list) list;
      (* shared group -> (dropped, kept dominator) pairs, for SA060 *)
}

let create config =
  {
    config;
    history = History.create config;
    si = None;
    rounds_executed = 0;
    rounds_naive = 0;
    rounds_sequential = 0;
    rounds_pruned = 0;
    rounds_aborted_bound = 0;
    pruned_props = [];
  }

let shared_info state =
  match state.si with
  | Some si -> si
  | None -> invalid_arg "Phase2: shared info not computed yet"

(* --- hook implementations --------------------------------------------- *)

(* [restricted] maps (map id, class of the child's shared_below set),
   packed with [Intern.pair], to the map restricted to that set: children
   with equal sets share the entry. *)
let child_extreq state restricted (t : Optimizer.t)
    ~(child : Smemo.Memo.group) (creq : Extreq.t) (parent : Extreq.t) =
  if t.Optimizer.phase <> 2 || Intern.is_empty parent.Extreq.enforce then creq
  else begin
    let si = shared_info state in
    let cid = child.Smemo.Memo.id in
    let enforce =
      (* prune to paths that still lead to an enforced shared group; keep
         everything for groups unknown to the (post-phase-0) analysis *)
      match Shared_info.below_class si cid with
      | None -> parent.Extreq.enforce
      | Some cls -> (
          let key = Intern.pair parent.Extreq.enforce.Intern.id cls in
          match Intern.Id_tbl.find_opt restricted key with
          | Some m -> m
          | None ->
              let below = Shared_info.shared_below si cid in
              let m =
                Intern.filter t.Optimizer.intern
                  (fun gid -> List.mem gid below)
                  parent.Extreq.enforce
              in
              Intern.Id_tbl.add restricted key m;
              m)
    in
    { creq with Extreq.enforce }
  end

(* Per-consumer compensation above a pinned shared plan: layer enforcers
   until the consumer's original requirement is satisfied. *)
let rec compensate (t : Optimizer.t) (g : Smemo.Memo.group)
    (req : Extreq.t) (base : Plan.t) : Plan.t option =
  if Reqprops.satisfied base.Plan.props req.Extreq.req then Some base
  else
    let candidates =
      List.filter_map
        (fun (alt : Optimizer.enforcer) ->
          match compensate t g alt.Optimizer.inner base with
          | None -> None
          | Some inner ->
              let node = Optimizer.mk_plan t g alt.Optimizer.eop [ inner ] in
              if
                Optimizer.valid_candidate t ~static_ok:alt.Optimizer.estatic
                  req.Extreq.req node
              then Some node
              else None)
        (Optimizer.enforcers t g req)
    in
    Optimizer.cheapest t candidates

(* Algorithm 4, lines 4-12: all re-optimization rounds at an LCA.  The
   candidates are prepared here; [Rounds.search] decides which rounds
   run, and [probe] runs one. *)
let run_rounds state (t : Optimizer.t) (g : Smemo.Memo.group)
    (extreq : Extreq.t) (to_assign : int list) =
  let si = shared_info state in
  let ordered =
    if state.config.Config.use_group_ranking then
      Rank.order t.Optimizer.cluster t.Optimizer.memo si to_assign
    else to_assign
  in
  let classes =
    if state.config.Config.use_independent_groups then
      Independent.classes si t.Optimizer.memo ~l:g.Smemo.Memo.id ordered
    else [ ordered ]
  in
  let ranked =
    List.map
      (List.map (fun s -> (s, History.ranked_properties state.history s)))
      classes
  in
  (* layer 1: dominance filtering of the candidate property sets; the
     naive/sequential counters keep describing the unpruned space so the
     pruning is visible as rounds_pruned *)
  let with_props =
    if state.config.Config.prune then
      List.map
        (List.map (fun s ->
             let kept, dropped = History.candidates state.history s in
             if dropped <> [] && not (List.mem_assoc s state.pruned_props)
             then state.pruned_props <- (s, dropped) :: state.pruned_props;
             (s, kept)))
        classes
    else ranked
  in
  state.rounds_naive <- state.rounds_naive + Rounds.naive_total ranked;
  state.rounds_sequential <-
    state.rounds_sequential + Rounds.sequential_total ranked;
  state.rounds_pruned <-
    state.rounds_pruned
    + (Rounds.sequential_total ranked - Rounds.sequential_total with_props);
  let lca = g.Smemo.Memo.id in
  (* the plan without any enforcement (the phase-1 shape) also competes,
     and its cost is the layer-2 incumbent the search starts from *)
  let shape = Optimizer.log_phys_opt t g extreq in
  let candidates = ref (Option.to_list shape) in
  let traced = Sobs.Trace.enabled () in
  let round = ref 0 in
  let probe assignment ~bound =
    (* a round whose children are all memoized winners ticks no
       optimization task, so the round itself is charged *)
    Budget.tick t.Optimizer.budget;
    incr round;
    let bound = if state.config.Config.prune then bound else infinity in
    let ext' =
      {
        extreq with
        Extreq.enforce =
          Intern.of_list t.Optimizer.intern
            (extreq.Extreq.enforce.Intern.bindings @ assignment);
      }
    in
    if traced then
      Sobs.Trace.begin_span ~pid:Sobs.Trace.pid_phase2
        ~args:
          [
            ("lca", Sobs.Trace.Int lca);
            ("round", Sobs.Trace.Int !round);
            ("assignment", Sobs.Trace.Str (pp_assignment assignment));
          ]
        "ReoptimizeRound";
    let cost =
      match Optimizer.log_phys_opt t ~bound g ext' with
      | exception Optimizer.Above_bound ->
          (* layer 2 abort: the round's true cost provably exceeds the
             bound, so its plan can never be chosen; infinity leaves the
             class best as unmoved as the true cost would *)
          state.rounds_aborted_bound <- state.rounds_aborted_bound + 1;
          Log.debug (fun m ->
              m "round %d at LCA %d: {%s} aborted (bound %.6g)" !round lca
                (pp_assignment assignment) bound);
          infinity
      | Some p ->
          state.rounds_executed <- state.rounds_executed + 1;
          (* the walking cost, so the last-ulp noise of the cached closure
             cannot flip which assignment a class keeps as its best *)
          let cost = Scost.Dagcost.cost t.Optimizer.cluster p in
          Log.debug (fun m ->
              m "round %d at LCA %d: {%s} -> cost %.6g" !round lca
                (pp_assignment assignment) cost);
          candidates := p :: !candidates;
          cost
      | None ->
          state.rounds_executed <- state.rounds_executed + 1;
          Log.debug (fun m ->
              m "round %d at LCA %d: infeasible assignment" !round lca);
          infinity
    in
    if traced then
      Sobs.Trace.end_span ~pid:Sobs.Trace.pid_phase2
        ~args:[ ("cost", Sobs.Trace.Float cost) ]
        "ReoptimizeRound";
    cost
  in
  Rounds.search with_props
    ~incumbent:
      (match shape with
      | Some p -> Scost.Dagcost.cost t.Optimizer.cluster p
      | None -> infinity)
    ~exhausted:(fun () -> Budget.exhausted t.Optimizer.budget)
    ~probe;
  let winner = Optimizer.cheapest t !candidates in
  (if traced then
     let args =
       match winner with
       | Some p ->
           [
             ("lca", Sobs.Trace.Int lca);
             ("cost", Sobs.Trace.Float (Scost.Dagcost.cost t.Optimizer.cluster p));
           ]
       | None -> [ ("lca", Sobs.Trace.Int lca) ]
     in
     Sobs.Trace.instant ~pid:Sobs.Trace.pid_phase2 ~args "round.winner");
  winner

(* [pinned_inner] maps (map id, pinned shared group), packed with
   [Intern.pair], to the requirement the group's base plan is optimized
   under. *)
let intercept state pinned_inner (t : Optimizer.t) (g : Smemo.Memo.group)
    (extreq : Extreq.t) =
  match t.Optimizer.phase with
  | 0 when g.Smemo.Memo.shared ->
      (* the conventional pass bypasses the spool *)
      let child = List.hd (Smemo.Memo.group_children g) in
      Some
        (Optimizer.optimize_group t
           (Smemo.Memo.group t.Optimizer.memo child)
           extreq)
  | 1 when g.Smemo.Memo.shared ->
      (* the property history (Section V): the request, and the entries
         its winner delivers (VIII-C) *)
      History.record state.history g.Smemo.Memo.id extreq.Extreq.req;
      let best = Optimizer.log_phys_opt t g extreq in
      History.note_best state.history g.Smemo.Memo.id best;
      Some best
  | 0 | 1 -> None
  | _ -> (
    match
      (g.Smemo.Memo.shared, Extreq.enforcement extreq g.Smemo.Memo.id)
    with
    | true, Some pinned ->
        (* pinned shared group: one base plan under the enforced
           properties, shared by every consumer; per-consumer enforcers on
           top when the original requirement asks for more *)
        if Sobs.Trace.enabled () then
          Sobs.Trace.instant ~pid:Sobs.Trace.pid_phase2
            ~args:
              [
                ("group", Sobs.Trace.Int g.Smemo.Memo.id);
                ("props", Sobs.Trace.Str (Fmt.str "%a" Reqprops.pp pinned));
              ]
            "pinned.shared";
        let inner =
          let key = Intern.pair extreq.Extreq.enforce.Intern.id g.Smemo.Memo.id in
          match Intern.Id_tbl.find_opt pinned_inner key with
          | Some x -> x
          | None ->
              let x =
                Extreq.make t.Optimizer.intern pinned
                  (Intern.filter t.Optimizer.intern
                     (fun gid -> gid <> g.Smemo.Memo.id)
                     extreq.Extreq.enforce)
              in
              Intern.Id_tbl.add pinned_inner key x;
              x
        in
        Some
          (match Optimizer.optimize_group t g inner with
          | None -> None
          | Some base -> compensate t g extreq base)
    | _ ->
        let si = shared_info state in
        let lcas = Shared_info.lca_groups si g.Smemo.Memo.id in
        let to_assign =
          List.filter
            (fun s ->
              Extreq.enforcement extreq s = None
              && History.count state.history s > 0)
            lcas
        in
        if to_assign = [] then None
        else Some (run_rounds state t g extreq to_assign))

let make_ext state : Optimizer.ext =
  {
    Optimizer.child_extreq = child_extreq state (Intern.Id_tbl.create 256);
    intercept = intercept state (Intern.Id_tbl.create 64);
  }

(* --- the three passes over a memo with spools ------------------------- *)

type outcome = {
  plan : Plan.t option;
  conventional_plan : Plan.t option;
  phase1_plan : Plan.t option;
  conventional_time : float;
  cse_time : float;
  conventional_tasks : int;
  phase2_winner_hits : int;
  state : state;
  ctx : Optimizer.t;
}

let optimize ?(config = Config.default) ?budget ?observe ~cluster
    (memo : Smemo.Memo.t) : outcome =
  let state = create config in
  let t =
    Optimizer.create ?budget ?observe ~ext:(make_ext state) ~cluster memo
  in
  let pass phase ~pid name =
    t.Optimizer.phase <- phase;
    Sobs.Trace.with_span ~pid name (fun () -> Optimizer.optimize_root t)
  in
  let t0 = Unix.gettimeofday () in
  let p0 = pass 0 ~pid:Sobs.Trace.pid_phase1 "conventional optimize" in
  let conventional_tasks = t.Optimizer.tasks in
  let t1 = Unix.gettimeofday () in
  (* Step 3: propagate shared-group info and identify LCAs *)
  let si =
    Sobs.Trace.with_span ~pid:Sobs.Trace.pid_phase2
      "shared-info (Algorithm 3)" (fun () -> Shared_info.compute memo)
  in
  state.si <- Some si;
  t.Optimizer.share_free <- Shared_info.share_free si;
  let p1 = pass 1 ~pid:Sobs.Trace.pid_phase1 "phase 1" in
  Log.info (fun m ->
      m "phase 1 done (%d tasks); LCAs: %s" t.Optimizer.budget.Budget.tasks
        (String.concat ", "
           (List.filter_map
              (fun s ->
                Option.map (Fmt.str "%d->%d" s)
                  (Shared_info.lca_of_shared si s))
              (Shared_info.shared_below si memo.Smemo.Memo.root))));
  let hits = t.Optimizer.winner_hits in
  let p2 = pass 2 ~pid:Sobs.Trace.pid_phase2 "phase 2" in
  Log.info (fun m ->
      m "phase 2 done: %d rounds executed (%d pruned, %d aborted)"
        state.rounds_executed state.rounds_pruned state.rounds_aborted_bound);
  (* a later pass wins ties: phase 2 over phase 1, the CSE plan over the
     conventional one *)
  let best =
    List.fold_left
      (fun acc p ->
        match (acc, p) with
        | Some a, Some b -> Some (if Optimizer.plan_le t b a then b else a)
        | a, None | None, a -> a)
      None [ p0; p1; p2 ]
  in
  {
    plan = best;
    conventional_plan = p0;
    phase1_plan = p1;
    conventional_time = t1 -. t0;
    cse_time = Unix.gettimeofday () -. t1;
    conventional_tasks;
    phase2_winner_hits = t.Optimizer.winner_hits - hits;
    state;
    ctx = t;
  }
