open Sphys
module Stage = Sexec.Stage

(* Stage-graph auditor.

   The staged executor trusts [Stage.build]'s output completely: the
   scheduler runs stages in id order, and the engine's interior evaluator
   consumes the recorded dependency list positionally.  A graph whose ids
   are not topological executes a stage before its inputs exist; a
   dependency list that diverges from the interior's left-to-right walk
   wires a consumer to the wrong input; an OUTPUT outside the sink stage
   would emit rows again on every fault recovery.  This pass re-derives
   each invariant from the plan independently of the compiler, so a
   compiler regression shows up as a diagnostic rather than a wrong
   answer.

   Stage locations are reported as [Diag.Node] of the stage id. *)

(* Boundary children of a stage interior, in the left-to-right depth-first
   order the engine's evaluator encounters them. *)
let interior_boundaries (root : Plan.t) =
  let acc = ref [] in
  let rec walk (n : Plan.t) =
    List.iter
      (fun (c : Plan.t) -> if Stage.boundary c then acc := c :: !acc else walk c)
      n.Plan.children
  in
  walk root;
  List.rev !acc

(* SA040: ids are the array index, every dependency's id is smaller than
   its consumer's, and the sink is the last stage rooted at the plan. *)
let topo_diags (plan : Plan.t) (g : Stage.graph) =
  let n = Array.length g.Stage.stages in
  let diags = ref [] in
  let bad sid fmt =
    Fmt.kstr
      (fun m -> diags := Diag.make ~code:"SA040" ~loc:(Diag.Node sid) m :: !diags)
      fmt
  in
  Array.iteri
    (fun i (st : Stage.stage) ->
      if st.Stage.id <> i then bad i "stage %d stored at index %d" st.Stage.id i;
      List.iter
        (fun (_, dep) ->
          if dep < 0 || dep >= n then
            bad st.Stage.id "dependency id %d outside the graph" dep
          else if dep >= st.Stage.id then
            bad st.Stage.id "dependency %d does not precede its consumer" dep)
        st.Stage.deps)
    g.Stage.stages;
  if g.Stage.sink <> n - 1 then
    bad g.Stage.sink "sink stage %d is not the last of %d" g.Stage.sink n
  else if n > 0 && not (g.Stage.stages.(g.Stage.sink).Stage.root == plan) then
    bad g.Stage.sink "sink stage is not rooted at the plan root";
  List.rev !diags

(* SA041: each stage's dependency list must be exactly the boundary
   children of its interior, in walk order, each produced by a stage
   rooted at that very node. *)
let deps_diags (g : Stage.graph) =
  let n = Array.length g.Stage.stages in
  let diags = ref [] in
  let bad sid fmt =
    Fmt.kstr
      (fun m -> diags := Diag.make ~code:"SA041" ~loc:(Diag.Node sid) m :: !diags)
      fmt
  in
  Array.iter
    (fun (st : Stage.stage) ->
      let found = interior_boundaries st.Stage.root in
      if List.length found <> List.length st.Stage.deps then
        bad st.Stage.id "interior has %d boundary children, %d recorded"
          (List.length found) (List.length st.Stage.deps)
      else
        List.iteri
          (fun i ((b : Plan.t), dep) ->
            if not (List.nth found i == b) then
              bad st.Stage.id "dependency %d is not the %dth boundary child"
                dep i
            else if
              dep >= 0 && dep < n
              && not (g.Stage.stages.(dep).Stage.root == b)
            then
              bad st.Stage.id "dependency %d is not rooted at its boundary node"
                dep)
          st.Stage.deps)
    g.Stage.stages;
  List.rev !diags

(* SA042: a non-spool node reachable from several interior positions is
   executed once per reference.  Legitimate in the conventional baseline
   (it shares winner subplans physically and pays per consumer); in a
   CSE plan, sharing is supposed to flow through spools, so leftover
   physical sharing means the optimizer reused a subtree without
   materializing it. *)
let sharing_diags (g : Stage.graph) =
  (* node -> already reported as duplicated *)
  let seen = Plan.Tbl.create 64 in
  let dup = ref [] in
  let note (n : Plan.t) =
    match Plan.Tbl.find_opt seen n with
    | None -> Plan.Tbl.add seen n false
    | Some false ->
        Plan.Tbl.replace seen n true;
        dup := n :: !dup
    | Some true -> ()
  in
  Array.iter
    (fun (st : Stage.stage) ->
      let rec walk (n : Plan.t) =
        note n;
        List.iter
          (fun (c : Plan.t) -> if not (Stage.boundary c) then walk c)
          n.Plan.children
      in
      walk st.Stage.root)
    g.Stage.stages;
  List.rev_map
    (fun (n : Plan.t) ->
      Diag.make ~code:"SA042"
        ~loc:(Diag.Operator (Physop.short_name n.Plan.op))
        "subtree shared across stage references without a spool")
    !dup

(* SA043: OUTPUT and SEQUENCE are sink-only operators — the sink runs
   exactly once, so outputs cannot be re-emitted during recovery. *)
let sink_diags (g : Stage.graph) =
  let diags = ref [] in
  Array.iter
    (fun (st : Stage.stage) ->
      if st.Stage.id <> g.Stage.sink then
        let rec walk (n : Plan.t) =
          (match n.Plan.op with
          | Physop.P_output _ | Physop.P_sequence ->
              diags :=
                Diag.make ~code:"SA043" ~loc:(Diag.Node st.Stage.id)
                  (Printf.sprintf "%s inside non-sink stage %d"
                     (Physop.short_name n.Plan.op) st.Stage.id)
                :: !diags
          | _ -> ());
          List.iter
            (fun (c : Plan.t) -> if not (Stage.boundary c) then walk c)
            n.Plan.children
        in
        walk st.Stage.root)
    g.Stage.stages;
  List.rev !diags

(* SA044: every stage must be a transitive dependency of the sink.  The
   parallel wave scheduler's guarantees lean on this: demand closure from
   never-run stages covers the whole graph, and the sink is only ready
   once everything else has executed — which is what confines OUTPUT
   effects to a wave of its own.  An orphan stage would execute (the
   scheduler runs every stage at least once) but nothing downstream could
   ever read it, so it is compiler breakage, not sharing. *)
let reach_diags (g : Stage.graph) =
  let n = Array.length g.Stage.stages in
  if n = 0 || g.Stage.sink < 0 || g.Stage.sink >= n then []
  else begin
    let reachable = Array.make n false in
    let rec visit sid =
      if not reachable.(sid) then begin
        reachable.(sid) <- true;
        List.iter
          (fun (_, dep) -> if dep >= 0 && dep < n then visit dep)
          g.Stage.stages.(sid).Stage.deps
      end
    in
    visit g.Stage.sink;
    let diags = ref [] in
    Array.iteri
      (fun sid r ->
        if not r then
          diags :=
            Diag.make ~code:"SA044" ~loc:(Diag.Node sid)
              (Printf.sprintf "stage %d is not reachable from sink %d" sid
                 g.Stage.sink)
            :: !diags)
      reachable;
    List.rev !diags
  end

let check_graph ?(expect_spooled_sharing = true) (plan : Plan.t)
    (g : Stage.graph) : Diag.t list =
  topo_diags plan g @ deps_diags g
  @ (if expect_spooled_sharing then sharing_diags g else [])
  @ sink_diags g @ reach_diags g
