open Sphys

(* The Cascades-style optimization engine (Algorithm 2 / Algorithm 5).

   [optimize_group] memoizes a winner per (phase, extended requirement),
   the phase left out at a [share_free] group.  The CSE framework extends
   the engine through the [ext] hooks: propagating enforcement maps to
   children (Algorithm 5), and intercepting shared and LCA groups
   (Algorithm 4, Section V). *)

(* An implementation alternative of a memo expression under one
   requirement, prepared once per (group, requirement id): its children's
   groups with their interned conventional requirements, and the verdict
   of the checks that depend only on the operator and those groups'
   schemas. *)
type impl = {
  iop : Physop.t;
  inputs : (Smemo.Memo.group * Extreq.t) list;
  istatic : bool;
}

type enforcer = { eop : Physop.t; inner : Extreq.t; estatic : bool }

(* A phase-2 memo entry, kept from its key's second request on.  Phase 1
   asks for each (group, requirement id) once -- its winner keys carry no
   enforcement map.  Phase 2 asks for most pairs once too; the ones it asks
   for again are asked for in every round at an LCA above them.  Keeping
   only those leaves the single requests nothing to hold past the minor
   heap. *)
type 'a entry = Seen | Kept of 'a

type t = {
  memo : Smemo.Memo.t;
  cluster : Scost.Cluster.t;
  budget : Budget.t;
  mutable phase : int;
  mutable tasks : int;
      (* winner-cache misses in every phase; the budget is ticked in
         phases 1-2 only, so it never truncates the conventional pass *)
  mutable winner_hits : int;
  mutable rule_firings : int;
  mutable share_free : int -> bool;
  ext : ext;
  intern : Intern.t;
  observe : (Reqprops.t -> Plan.t -> bool -> unit) option;
  cache : cache;
}

(* The alternatives phase 2 keeps, keyed by (group id, requirement id)
   packed with [Intern.pair]. *)
and cache = {
  impls : impl list entry Intern.Id_tbl.t;
  enforcers : enforcer list entry Intern.Id_tbl.t;
}

and ext = {
  (* Algorithm 5, lines 9-17: build the child's extended requirement from
     the conventional DetChildProp result (an unenforced requirement) and
     the parent's enforcement map *)
  child_extreq :
    t -> child:Smemo.Memo.group -> Extreq.t -> Extreq.t -> Extreq.t;
  (* Algorithm 4, lines 4-12: a [Some result] bypasses the default
     optimization (used for shared groups and LCA rounds) *)
  intercept : t -> Smemo.Memo.group -> Extreq.t -> Plan.t option option;
}

let default_ext =
  {
    child_extreq = (fun _ ~child:_ creq _ -> creq);
    intercept = (fun _ _ _ -> None);
  }

let create ?(ext = default_ext) ?(budget = Budget.create ()) ?observe
    ~(cluster : Scost.Cluster.t) (memo : Smemo.Memo.t) =
  {
    memo;
    cluster;
    budget;
    phase = 1;
    tasks = 0;
    winner_hits = 0;
    rule_firings = 0;
    share_free = (fun _ -> false);
    ext;
    intern = Intern.create ();
    observe;
    cache =
      {
        impls = Intern.Id_tbl.create 256;
        enforcers = Intern.Id_tbl.create 256;
      };
  }

(* Winner-table key: the enforcement map's id, the requirement's id and
   the phase (0, 1 or 2, always 0 at a share-free group) packed into one
   int. *)
let winner_key t (g : Smemo.Memo.group) (x : Extreq.t) =
  let phase = if t.share_free g.Smemo.Memo.id then 0 else t.phase in
  (Intern.pair x.Extreq.enforce.Intern.id x.Extreq.rid lsl 2) lor phase

(* This run's counts under their report names; [optimizer.tasks] and
   [optimizer.winner_misses] are both the task count, one per winner
   miss. *)
let counters t =
  [
    ("optimizer.tasks", t.tasks);
    ("optimizer.winner_hits", t.winner_hits);
    ("optimizer.winner_misses", t.tasks);
    ("optimizer.rule_firings", t.rule_firings);
    ("intern.hits", Intern.hits t.intern);
    ("intern.misses", Intern.misses t.intern);
  ]

(* Build a plan node for [op] over [children] in group [g]. *)
let mk_plan t (g : Smemo.Memo.group) op children =
  let stats = g.Smemo.Memo.stats in
  let op_cost = Scost.Costmodel.op_cost t.cluster op children ~out:stats in
  Plan.make ~out_cols:g.Smemo.Memo.cols ~op ~children ~group:g.Smemo.Memo.id
    ~schema:g.Smemo.Memo.schema ~stats ~op_cost ()

(* DAG-deduplicated cost used for every plan comparison, served from the
   region summaries cached at plan construction. *)
let plan_cost t p = Scost.Dagcost.cached_cost t.cluster p

(* On spool-free plans the cached region cost is bit-for-bit the walking
   cost; only spool-bearing plans can disagree in the last ulps because
   the closure sums in a different order. *)
let exactly_walked (p : Plan.t) =
  p.Plan.srefs = [] && p.Plan.op <> Physop.P_spool

(* Is [p] strictly cheaper than [q]?  Far-apart costs are decided on the
   cached values; near-ties between spool-bearing plans (within 1e-9
   relative, ulp-noise territory for either summation order) are decided
   on the walking cost, so plan choices are identical to walking-cost
   comparison. *)
let cost_lt t ((p : Plan.t), c) ((q : Plan.t), qc) =
  let scale = Float.max 1.0 (Float.max (Float.abs c) (Float.abs qc)) in
  if Float.abs (c -. qc) > 1e-9 *. scale then c < qc
  else if exactly_walked p && exactly_walked q then c < qc
  else Scost.Dagcost.cost t.cluster p < Scost.Dagcost.cost t.cluster q

(* [p] no costlier than [q], under the same near-tie rules. *)
let plan_le t p q = not (cost_lt t (q, plan_cost t q) (p, plan_cost t p))

(* Each candidate is costed exactly once: the fold carries the running
   best as a (plan, cost) pair instead of re-costing it per comparison. *)
let cheapest t plans =
  List.fold_left
    (fun best p ->
      let c = plan_cost t p in
      match best with
      | None -> Some (p, c)
      | Some pc -> if cost_lt t (p, c) pc then Some (p, c) else best)
    None plans
  |> Option.map fst

(* A candidate is kept only if the operator's own input requirements hold
   against the children actually delivered (enforcement may have overridden
   what was requested) and the delivered properties satisfy the caller's
   requirement: [Plan_check.check_op node = []] and [satisfied], with the
   static half of [check_op] decided once per alternative ([static_ok]),
   and without its re-derivation of [node.props], which [Plan.make] has
   just derived. *)
let valid_candidate t ~static_ok (req : Reqprops.t) (node : Plan.t) =
  let ok =
    static_ok
    && Plan_check.inputs_ok node.Plan.op
         (List.map (fun (c : Plan.t) -> c.Plan.props) node.Plan.children)
    && Reqprops.satisfied node.Plan.props req
  in
  (match t.observe with Some f -> f req node ok | None -> ());
  ok

(* [prepare ()], or, in phase 2, the value a [Kept] entry holds for
   [key]. *)
let memo t tbl key prepare =
  if t.phase < 2 then prepare ()
  else
    match Intern.Id_tbl.find_opt tbl key with
    | Some (Kept v) -> v
    | Some Seen ->
        let v = prepare () in
        Intern.Id_tbl.replace tbl key (Kept v);
        v
    | None ->
        Intern.Id_tbl.add tbl key Seen;
        prepare ()

(* The implementation alternatives of group [g]'s expressions under
   [x.req], prepared once per (group, requirement id).  A group's
   expressions are final once it has been explored, which [log_phys_opt]
   does before asking for them. *)
let impls t (g : Smemo.Memo.group) (x : Extreq.t) =
  memo t t.cache.impls (Intern.pair g.Smemo.Memo.id x.Extreq.rid) (fun () ->
      List.concat_map
        (fun (e : Smemo.Memo.mexpr) ->
          let groups = List.map (Smemo.Memo.group t.memo) e.Smemo.Memo.children in
          let schemas =
            List.map (fun (cg : Smemo.Memo.group) -> cg.Smemo.Memo.schema) groups
          in
          List.map
            (fun (alt : Impl.alt) ->
              {
                iop = alt.Impl.op;
                inputs =
                  List.map2
                    (fun cg creq ->
                      (* a requirement passed through is already interned *)
                      if creq == x.Extreq.req then
                        (cg, { x with Extreq.enforce = Intern.empty })
                      else (cg, Extreq.plain t.intern creq))
                    groups alt.Impl.child_reqs;
                istatic = Plan_check.static_ok alt.Impl.op schemas;
              })
            (Impl.alternatives e x.Extreq.req))
        g.Smemo.Memo.exprs)

let enforcers t (g : Smemo.Memo.group) (x : Extreq.t) =
  memo t t.cache.enforcers (Intern.pair g.Smemo.Memo.id x.Extreq.rid)
    (fun () ->
      List.map
        (fun (alt : Enforcers.alt) ->
          {
            eop = alt.Enforcers.op;
            inner = Extreq.plain t.intern alt.Enforcers.inner;
            estatic = Plan_check.static_ok alt.Enforcers.op [ g.Smemo.Memo.schema ];
          })
        (Enforcers.alternatives x.Extreq.req))

(* Raised by a bounded [log_phys_opt] that has cut every candidate it
   could have completed: the group's answer provably exceeds the bound. *)
exception Above_bound

(* Branch-and-bound protocol.  [bound] (default infinity: off) is an upper
   bound on any plan still worth finding — phase-2 rounds pass the
   incumbent round cost, with a hair of relative slack so the cutoff sits
   far outside the near-tie band of [cheapest].  Under a finite bound,
   [log_phys_opt] prunes at its own level only:

   - an implementation alternative is abandoned as soon as the
     deduplicated cost of its completed children exceeds the working
     bound (remaining children and the operator itself cost >= 0, so the
     alternative's true cost is provably above it);
   - a completed candidate provably costlier than the caller's bound is
     dropped — it can never be chosen over the incumbent the bound came
     from;
   - the working bound tightens to the best candidate completed so far,
     so later alternatives are held to the harder target.

   Child groups and enforcer inners go through [optimize_group], which
   takes no bound: their winners are exact, memoized and warm for
   subsequent rounds.

   If anything was cut and no in-bound candidate remains, there is no
   answer, only a proof that the true answer exceeds [bound]:
   [log_phys_opt] raises [Above_bound] (the round aborts).  Whatever it
   returns is the group's true winner.  With the default infinite bound
   nothing is cut and no candidate is costed. *)
let rec optimize_group t (g : Smemo.Memo.group) (extreq : Extreq.t) :
    Plan.t option =
  let key = winner_key t g extreq in
  match Hashtbl.find_opt g.Smemo.Memo.winners key with
  | Some w ->
      t.winner_hits <- t.winner_hits + 1;
      w.Smemo.Memo.wplan
  | None ->
      t.tasks <- t.tasks + 1;
      if t.phase > 0 then Budget.tick t.budget;
      (* span only on the miss path: hits are the memoized fast path and
         would dominate the trace without saying where time went *)
      let traced = Sobs.Trace.enabled () in
      let pid = Sobs.Trace.pid_of_phase t.phase in
      if traced then
        Sobs.Trace.begin_span ~pid
          ~args:[ ("group", Sobs.Trace.Int g.Smemo.Memo.id) ]
          "OptimizeGroup";
      let result =
        match t.ext.intercept t g extreq with
        | Some r -> r
        | None -> log_phys_opt t g extreq
      in
      Hashtbl.replace g.Smemo.Memo.winners key
        {
          Smemo.Memo.wphase = t.phase;
          wreq = extreq.Extreq.req;
          wenforce = extreq.Extreq.enforce.Intern.bindings;
          wplan = result;
        };
      if traced then Sobs.Trace.end_span ~pid "OptimizeGroup";
      result

(* Logical exploration + physical optimization of one group under one
   requirement (the body of Algorithm 5). *)
and log_phys_opt t ?(bound = infinity) (g : Smemo.Memo.group)
    (extreq : Extreq.t) : Plan.t option =
  t.rule_firings <- t.rule_firings + Rules.explore t.memo g;
  let req = extreq.Extreq.req in
  let bounded = bound < infinity in
  let skipped = ref false in
  (* the working bound tightens as candidates complete: a later
     alternative only matters if it can beat the best one found so far.
     The 1e-6 slack keeps every discard outside the near-tie band where
     [cheapest] falls back to walking-cost comparison, so pruned-in and
     pruned-out runs pick identical winners. *)
  let work_bound = ref bound in
  let note_candidate node =
    if not bounded then Some node
    else
      let c = plan_cost t node in
      if c > bound then begin
        (* provably never chosen over the caller's incumbent *)
        skipped := true;
        None
      end
      else begin
        let tight = c *. (1.0 +. 1e-6) in
        if tight < !work_bound then work_bound := tight;
        Some node
      end
  in
  let impl_candidates =
    List.filter_map
      (fun (alt : impl) ->
        (* children left to right; under a bound, [lb] runs
           [Dagcost]'s region closure over the completed prefix: each
           child pays its region plus a read per spool reference, and
           each distinct spool value its production once across the
           prefix.  The candidate's final cost counts exactly these terms
           plus its own operator and the remaining children (all >= 0),
           so the sum is a true lower bound on any plan completed from
           the prefix -- a naive sum of the children's costs would pay a
           shared production twice and overshoot, which is fatal for
           pruning soundness. *)
        let lb = if bounded then Some (Scost.Dagcost.create t.cluster) else None in
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | (child, creq) :: inputs -> (
              match lb with
              | Some lb when Scost.Dagcost.sum lb > !work_bound ->
                  skipped := true;
                  None
              | _ -> (
                  let cext = t.ext.child_extreq t ~child creq extreq in
                  match optimize_group t child cext with
                  | None -> None (* genuinely infeasible child *)
                  | Some p ->
                      (match lb with
                      | Some lb -> Scost.Dagcost.add lb p
                      | None -> ());
                      go (p :: acc) inputs))
        in
        match go [] alt.inputs with
        | None -> None
        | Some children ->
            let node = mk_plan t g alt.iop children in
            if valid_candidate t ~static_ok:alt.istatic req node then
              note_candidate node
            else None)
      (impls t g extreq)
  in
  let enforcer_candidates =
    List.filter_map
      (fun (alt : enforcer) ->
        let inner = alt.inner in
        match
          optimize_group t g
            { extreq with Extreq.req = inner.Extreq.req; rid = inner.Extreq.rid }
        with
          | None -> None
          | Some inner ->
              let node = mk_plan t g alt.eop [ inner ] in
              if valid_candidate t ~static_ok:alt.estatic req node then begin
                if Sobs.Trace.enabled () then
                  Sobs.Trace.instant ~pid:(Sobs.Trace.pid_of_phase t.phase)
                    ~args:
                      [
                        ("group", Sobs.Trace.Int g.Smemo.Memo.id);
                        ("op", Sobs.Trace.Str (Physop.to_string alt.eop));
                      ]
                    "enforcer";
                note_candidate node
              end
              else None)
      (enforcers t g extreq)
  in
  match cheapest t (impl_candidates @ enforcer_candidates) with
  | None when !skipped -> raise Above_bound
  | result -> result

(* Entry point: optimize the whole memo for the current phase. *)
let optimize_root t =
  optimize_group t (Smemo.Memo.root_group t.memo)
    (Extreq.plain t.intern Reqprops.none)
