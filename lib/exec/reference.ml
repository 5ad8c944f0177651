open Relalg

(* Reference evaluator: executes the *logical* DAG directly over the same
   synthetic tables, with no parallelism and no physical operators.  Every
   physical plan -- conventional or CSE, any round -- must produce exactly
   these outputs; tests compare against this ground truth. *)

let run (catalog : Catalog.t) (dag : Slogical.Dag.t) =
  let cache : (int, Table.t) Hashtbl.t = Hashtbl.create 16 in
  let outputs = ref [] in
  let rec eval id : Table.t =
    match Hashtbl.find_opt cache id with
    | Some t -> t
    | None ->
        let n = Slogical.Dag.node dag id in
        let children () = List.map eval n.Slogical.Dag.children in
        let one () =
          match n.Slogical.Dag.children with
          | [ c ] -> eval c
          | _ -> invalid_arg "Reference: expected one child"
        in
        let result =
          match n.Slogical.Dag.op with
          | Slogical.Logop.Extract { file; schema; _ } ->
              Datagen.table catalog ~file ~schema
          | Slogical.Logop.Filter { pred } -> Table.filter (one ()) pred
          | Slogical.Logop.Project { items } -> Table.project (one ()) items
          | Slogical.Logop.Group_by { keys; aggs } ->
              Table.group_by (one ()) ~keys ~aggs
          | Slogical.Logop.Group_by_local _ | Slogical.Logop.Group_by_global _
            ->
              invalid_arg "Reference: two-stage aggregation is physical-only"
          | Slogical.Logop.Join { kind; pairs; residual } -> (
              match children () with
              | [ l; r ] ->
                  let eqs =
                    List.map
                      (fun (a, b) -> Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b))
                      pairs
                  in
                  let pred =
                    match eqs @ Option.to_list residual with
                    | [] -> Expr.Lit (Value.Int 1)
                    | e :: rest ->
                        List.fold_left (fun acc x -> Expr.And (acc, x)) e rest
                  in
                  Table.join
                    ~kind:
                      (match kind with
                      | Slogical.Logop.Inner -> `Inner
                      | Slogical.Logop.Left_outer -> `Left_outer)
                    l r pred
              | _ -> invalid_arg "Reference: join expects two children")
          | Slogical.Logop.Union_all -> (
              match children () with
              | [ l; r ] -> Table.union_all l r
              | _ -> invalid_arg "Reference: union expects two children")
          | Slogical.Logop.Spool -> one ()
          | Slogical.Logop.Output { file; order = _ } ->
              (* output contents are compared as multisets; the ordering
                 requirement is checked separately against the engine *)
              let t = one () in
              outputs := !outputs @ [ (file, t) ];
              t
          | Slogical.Logop.Sequence ->
              ignore (children ());
              Table.empty []
        in
        Hashtbl.replace cache id result;
        result
  in
  ignore (eval (Slogical.Dag.root dag).Slogical.Dag.id);
  !outputs
