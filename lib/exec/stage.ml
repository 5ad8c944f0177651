open Sphys

(* Stage-graph compilation: a physical plan DAG cut at data-movement and
   materialization boundaries, SCOPE/Dryad style.

   A *stage* is a maximal operator subtree executed as one unit: its root
   is a boundary operator (exchange, merge-exchange, gather or spool) or
   the plan root, and its interior extends downward until the next
   boundary.  Boundary children become *dependencies* — edges to the stage
   that produces them.

   Sharing follows the engine's execution semantics exactly:

   - a [P_spool] boundary gets ONE stage however many consumers reference
     it (physical identity); that stage's cached output is what the paper
     shares;
   - every other boundary gets a stage PER REFERENCE, and shared non-spool
     interior nodes are walked (hence later executed) once per reference.
     This is deliberate tree expansion: the conventional baseline reuses
     winner subplans physically but pays for each consumer's copy, and
     the executor's counters must account each copy.

   [deps] lists each boundary encounter of the interior in left-to-right
   depth-first order — the order the engine's interior evaluator consumes
   them — paired with the boundary node itself so the consumer can verify
   it is reading what the compiler cut. *)

type stage = {
  id : int;
  root : Plan.t;
  deps : (Plan.t * int) list;
      (* boundary children in interior walk order, with producing stage *)
}

type graph = {
  stages : stage array;
      (* indexed by id; topological: every dependency precedes its consumer *)
  sink : int; (* the plan root's stage; always the last *)
}

let boundary (n : Plan.t) =
  match n.Plan.op with
  | Physop.P_exchange _ | Physop.P_merge_exchange _ | Physop.P_gather
  | Physop.P_spool ->
      true
  | _ -> false

let build (plan : Plan.t) : graph =
  let stages = ref [] in
  let count = ref 0 in
  (* spools are deduplicated by physical identity; other boundaries are
     instantiated per reference *)
  let spool_stage : (Plan.t * int) list ref = ref [] in
  let rec stage_of root =
    let deps = ref [] in
    let rec walk n =
      List.iter
        (fun (c : Plan.t) ->
          if boundary c then begin
            let sid =
              match c.Plan.op with
              | Physop.P_spool -> (
                  match List.assq_opt c !spool_stage with
                  | Some sid -> sid
                  | None ->
                      let sid = stage_of c in
                      spool_stage := (c, sid) :: !spool_stage;
                      sid)
              | _ -> stage_of c
            in
            deps := (c, sid) :: !deps
          end
          else walk c)
        n.Plan.children
    in
    walk root;
    let id = !count in
    incr count;
    stages := { id; root; deps = List.rev !deps } :: !stages;
    id
  in
  let sink = stage_of plan in
  { stages = Array.of_list (List.rev !stages); sink }

let size g = Array.length g.stages

(* Topological level of each stage: 0 for stages with no dependencies,
   else one more than the deepest dependency.  Stages of equal depth can
   execute concurrently in a fault-free run — the graph's wave structure. *)
let depths g =
  let n = Array.length g.stages in
  let d = Array.make n 0 in
  Array.iter
    (fun (st : stage) ->
      d.(st.id) <-
        List.fold_left (fun acc (_, dep) -> max acc (d.(dep) + 1)) 0 st.deps)
    g.stages;
  d

(* Largest number of stages sharing a depth level: the fault-free
   parallelism the wave scheduler can exploit. *)
let width g =
  let d = depths g in
  let n = Array.length g.stages in
  if n = 0 then 0
  else begin
    let per_level = Array.make (Array.fold_left max 0 d + 1) 0 in
    Array.iter (fun lvl -> per_level.(lvl) <- per_level.(lvl) + 1) d;
    Array.fold_left max 0 per_level
  end
