open Relalg

(* Cross-validation of physical plans against the reference evaluator. *)

type outcome = {
  ok : bool;
  mismatches : string list;
  outputs : (string * Table.t) list;
  engine : Engine.t;
}

(* ORDER BY specifications per output file, from the logical DAG. *)
let output_orders (dag : Slogical.Dag.t) =
  let live = Slogical.Dag.reachable dag in
  Array.to_list dag.Slogical.Dag.nodes
  |> List.filter_map (fun (n : Slogical.Dag.node) ->
         if live.(n.Slogical.Dag.id) then
           match n.Slogical.Dag.op with
           | Slogical.Logop.Output { file; order } when order <> [] ->
               Some (file, order)
           | _ -> None
         else None)

(* Byte-identical output comparison: same files in the same order, same
   rows in the same order.  Stricter than [Table.same_contents] (a
   multiset check) — this is what fault-recovery determinism promises. *)
let identical_outputs (a : (string * Table.t) list)
    (b : (string * Table.t) list) =
  let row_eq ra rb =
    Array.length ra = Array.length rb
    && Array.for_all2 Value.equal ra rb
  in
  List.length a = List.length b
  && List.for_all2
       (fun (fa, (ta : Table.t)) (fb, (tb : Table.t)) ->
         String.equal fa fb && ta.Table.schema = tb.Table.schema
         && List.equal row_eq ta.Table.rows tb.Table.rows)
       a b

(* Execute [plan] on a simulated cluster and compare every OUTPUT file's
   contents against the reference results for [dag]; outputs with an
   ORDER BY are additionally checked to be globally sorted. *)
let check ?(verify_props = false) ?faults
    ?oversubscribe ?(workers = 1) ?batch_size ~machines (catalog : Catalog.t)
    (dag : Slogical.Dag.t) (plan : Sphys.Plan.t) : outcome =
  let expected = Reference.run catalog dag in
  let engine =
    Engine.create ~verify_props ?faults ?oversubscribe ~workers ?batch_size
      ~machines catalog
  in
  let actual = Engine.run engine plan in
  let mismatches = ref [] in
  List.iter
    (fun (file, order) ->
      match List.assoc_opt file actual with
      | Some table ->
          let keys =
            List.map
              (fun (c, desc) ->
                ( Schema.index c table.Table.schema,
                  if desc then Sphys.Sortorder.Desc else Sphys.Sortorder.Asc ))
              order
          in
          if not (Engine.rows_sorted keys table.Table.rows) then
            mismatches :=
              Printf.sprintf "output %s violates its ORDER BY" file
              :: !mismatches
      | None -> ())
    (output_orders dag);
  if List.length expected <> List.length actual then
    mismatches :=
      Printf.sprintf "expected %d outputs, plan produced %d"
        (List.length expected) (List.length actual)
      :: !mismatches
  else
    List.iter2
      (fun (file_e, table_e) (file_a, table_a) ->
        if file_e <> file_a then
          mismatches :=
            Printf.sprintf "output order differs: %s vs %s" file_e file_a
            :: !mismatches
        else if not (Table.same_contents table_e table_a) then
          mismatches :=
            Printf.sprintf
              "output %s differs: expected %d rows, got %d rows (or contents)"
              file_e
              (Table.cardinality table_e)
              (Table.cardinality table_a)
            :: !mismatches)
      expected actual;
  mismatches := engine.Engine.prop_violations @ !mismatches;
  { ok = !mismatches = []; mismatches = !mismatches; outputs = actual; engine }
