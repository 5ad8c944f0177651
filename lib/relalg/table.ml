(* In-memory relations used by the simulated execution engine and the
   reference (naive) evaluator that tests compare against. *)

type t = { schema : Schema.t; rows : Value.t array list }

let make schema rows = { schema; rows }
let empty schema = { schema; rows = [] }
let cardinality t = List.length t.rows

let project t exprs_names =
  let schema' =
    List.map
      (fun (e, name) -> Schema.column name (Expr.infer_type t.schema e))
      exprs_names
  in
  let compiled = List.map (fun (e, _) -> Expr.compile t.schema e) exprs_names in
  let rows' =
    List.map
      (fun row -> Array.of_list (List.map (Expr.ceval row) compiled))
      t.rows
  in
  { schema = schema'; rows = rows' }

let filter t pred =
  let c = Expr.compile t.schema pred in
  { t with rows = List.filter (fun r -> Expr.ceval_pred r c) t.rows }

(* Reference group-by used to validate plan execution: hash rows by key
   tuple, run aggregate states per bucket. *)
let group_by t ~keys ~aggs =
  let key_idx = List.map (fun k -> Schema.index k t.schema) keys in
  (* aggregate arguments compiled once, not schema-walked per row *)
  let stepping =
    List.map (fun a -> (a, Expr.compile t.schema a.Agg.arg)) aggs
  in
  let tbl : (Value.t list, Value.t array * Agg.state list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) key_idx in
      let states =
        match Hashtbl.find_opt tbl key with
        | Some (_, states) -> states
        | None ->
            let states = List.map (fun _ -> Agg.init ()) aggs in
            Hashtbl.add tbl key (row, states);
            order := key :: !order;
            states
      in
      List.iter2
        (fun (a, carg) st -> Agg.step_value a st (Expr.ceval row carg))
        stepping states)
    t.rows;
  let key_schema =
    List.map
      (fun k ->
        match Schema.find k t.schema with
        | Some c -> c
        | None -> Schema.column k Schema.Tint)
      keys
  in
  let agg_schema =
    List.map (fun a -> Schema.column a.Agg.output (Agg.output_type t.schema a)) aggs
  in
  let rows =
    List.rev_map
      (fun key ->
        let _, states = Hashtbl.find tbl key in
        Array.of_list (key @ List.map2 Agg.finish aggs states))
      !order
  in
  { schema = key_schema @ agg_schema; rows }

(* Positional concatenation join on an arbitrary predicate over the
   combined schema; [`Left_outer] pads unmatched left rows with nulls. *)
let join ?(kind = `Inner) a b pred =
  let schema = a.schema @ b.schema in
  let cpred = Expr.compile schema pred in
  let pad = Array.make (Schema.arity b.schema) Value.Null in
  let rows =
    List.concat_map
      (fun ra ->
        let matches =
          List.filter_map
            (fun rb ->
              let row = Array.append ra rb in
              if Expr.ceval_pred row cpred then Some row else None)
            b.rows
        in
        match (matches, kind) with
        | [], `Left_outer -> [ Array.append ra pad ]
        | _ -> matches)
      a.rows
  in
  { schema; rows }

let union_all a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Table.union_all: schema mismatch";
  { schema = a.schema; rows = a.rows @ b.rows }

(* Multiset-equality up to row order, for comparing plan outputs. *)
let same_contents a b =
  Schema.names a.schema = Schema.names b.schema
  &&
  let norm t =
    List.sort (fun x y -> Stdlib.compare (Array.to_list x) (Array.to_list y))
      t.rows
  in
  List.equal
    (fun x y -> Array.for_all2 Value.equal x y)
    (norm a) (norm b)
