(* Plan rendering in the spirit of Figure 8: one operator per line with its
   delivered properties, costs, and shared (spool) subplans printed once
   and referenced afterwards. *)

(* [cost=] is the node's region total [sbase], the subtree's operators up
   to spool boundaries: a shared spool's production is priced on its own
   line only, never again on its consumers'. *)
let pp_node ppf (n : Plan.t) =
  Fmt.pf ppf "%a  %a  rows=%.3g cost=%.3g" Physop.pp n.Plan.op Props.pp
    n.Plan.props n.Plan.stats.Slogical.Stats.rows n.Plan.sbase

let pp ppf (t : Plan.t) =
  (* spool subplans already printed: a later reference to the *same*
     materialization (same group and identical plan) is shown as a
     back-reference; a different materialization of the same group is
     printed in full and flagged. *)
  let printed : (int, Plan.t) Hashtbl.t = Hashtbl.create 8 in
  let rec go indent (n : Plan.t) =
    let pad = String.make indent ' ' in
    match n.Plan.op with
    | Physop.P_spool -> (
        match Hashtbl.find_opt printed n.Plan.group with
        | Some prev when prev == n ->
            Fmt.pf ppf "%s<Spool group %d> (shared, defined above)@." pad
              n.Plan.group
        | Some _ ->
            Fmt.pf ppf "%s%a  !! second materialization of group %d@." pad
              pp_node n n.Plan.group;
            List.iter (go (indent + 2)) n.Plan.children
        | None ->
            Hashtbl.replace printed n.Plan.group n;
            Fmt.pf ppf "%s%a@." pad pp_node n;
            List.iter (go (indent + 2)) n.Plan.children)
    | _ ->
        Fmt.pf ppf "%s%a@." pad pp_node n;
        List.iter (go (indent + 2)) n.Plan.children
  in
  go 0 t

(* Graphviz rendering: physically shared subplans (spool references) become
   one node, making the executed DAG visible.  Edges point from consumers
   to producers.  [cost=] is the region total, as in [pp]. *)
let to_dot ?(name = "plan") (t : Plan.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  let ids = Plan.Tbl.create 64 in
  let node_id (n : Plan.t) =
    match Plan.Tbl.find_opt ids n with
    | Some i -> (i, true)
    | None ->
        let i = Plan.Tbl.length ids + 1 in
        Plan.Tbl.add ids n i;
        (i, false)
  in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  let rec go (n : Plan.t) =
    let id, seen = node_id n in
    if not seen then begin
      let shared_mark =
        match n.Plan.op with Physop.P_spool -> ", style=filled, fillcolor=lightyellow" | _ -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n%s\\nrows=%.3g cost=%.3g\"%s];\n" id
           (escape (Physop.to_string n.Plan.op))
           (escape (Props.to_string n.Plan.props))
           n.Plan.stats.Slogical.Stats.rows n.Plan.sbase shared_mark);
      List.iter
        (fun c ->
          go c;
          let cid, _ = node_id c in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id cid))
        n.Plan.children
    end
  in
  go t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
