open Sphys
module Stage = Sexec.Stage

(* Static interference audit over the stage graph (SA056/SA057).

   The domain-parallel wave scheduler may run any two stages concurrently
   when neither transitively depends on the other.  The determinism
   contract PR 4 tests dynamically is lifted here into a static audit:

   - SA057: no two stages schedulable in the same wave may write the same
     spool/cache cell.  A spool's materialization cell is the spool plan
     node itself: [Stage.build] deduplicates spool stages by physical
     identity, so a well-formed graph has exactly one stage per spool
     node and two unordered stages sharing a spool root would race on one
     cell.  Non-spool boundaries are instantiated per reference with a
     per-stage cache slot (identical roots there are redundant work —
     SA042's business — not a race), and distinct spool nodes over one
     memo group (the degraded phase-1 shape) are distinct cells
     (SA013's business).
   - SA056: every cross-stage read must be ordered by a dependency edge:
     each boundary child of a stage's interior needs an edge to the stage
     producing that very node, with a smaller id (the scheduler's
     ordering guarantee).  This is independent of SA041's positional
     bookkeeping check — it derives existence and ordering from scratch.

   Stage locations are reported as [Diag.Node] of the stage id. *)

(* Transitive-dependency closure: [anc.(i).(j)] = stage [i] (transitively)
   depends on stage [j].  Stages are topologically ordered by id, so one
   left-to-right pass suffices; ids outside the array (already SA040
   material) are ignored. *)
let ancestors (g : Stage.graph) =
  let n = Array.length g.Stage.stages in
  let anc = Array.init n (fun _ -> Array.make n false) in
  Array.iteri
    (fun i (st : Stage.stage) ->
      List.iter
        (fun (_, d) ->
          if d >= 0 && d < n && d <> i then begin
            anc.(i).(d) <- true;
            Array.iteri (fun k b -> if b then anc.(i).(k) <- true) anc.(d)
          end)
        st.Stage.deps)
    g.Stage.stages;
  anc

let write_diags (g : Stage.graph) anc =
  let n = Array.length g.Stage.stages in
  let diags = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (not anc.(j).(i)) && not anc.(i).(j) then begin
        let ri = g.Stage.stages.(i).Stage.root
        and rj = g.Stage.stages.(j).Stage.root in
        match ri.Plan.op with
        | Physop.P_spool when ri == rj ->
            diags :=
              Diag.make ~code:"SA057" ~loc:(Diag.Node j)
                (Printf.sprintf
                   "stages %d and %d are concurrently schedulable and both \
                    write the materialization cell of spool group %d"
                   i j ri.Plan.group)
              :: !diags
        | _ -> ()
      end
    done
  done;
  List.rev !diags

let read_diags (g : Stage.graph) =
  let n = Array.length g.Stage.stages in
  let diags = ref [] in
  Array.iter
    (fun (st : Stage.stage) ->
      List.iter
        (fun (b : Plan.t) ->
          let ordered =
            List.exists
              (fun ((p : Plan.t), d) ->
                p == b && d >= 0 && d < n && d < st.Stage.id
                && g.Stage.stages.(d).Stage.root == b)
              st.Stage.deps
          in
          if not ordered then
            diags :=
              Diag.make ~code:"SA056" ~loc:(Diag.Node st.Stage.id)
                (Printf.sprintf
                   "stage %d reads %s with no ordering dependency edge to its \
                    producer"
                   st.Stage.id
                   (Physop.short_name b.Plan.op))
              :: !diags)
        (Stage_audit.interior_boundaries st.Stage.root))
    g.Stage.stages;
  List.rev !diags

let check_graph (g : Stage.graph) : Diag.t list =
  write_diags g (ancestors g) @ read_diags g
