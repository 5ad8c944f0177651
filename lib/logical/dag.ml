open Relalg

(* The logical operator DAG produced by the binder: nodes numbered densely
   from 0, children referenced by id.  Sharing is explicit -- a node
   referenced by several parents is an explicit common subexpression
   (Figure 1(a), node 2). *)

type node = { id : int; op : Logop.t; children : int list; schema : Schema.t }

type t = { nodes : node array; root : int }

type builder = { mutable rev_nodes : node list; mutable count : int }

let builder () = { rev_nodes = []; count = 0 }

let add b op children schemas =
  let schema = Logop.derive_schema op schemas in
  (match Logop.arity op with
  | Some n when n <> List.length children ->
      invalid_arg
        (Printf.sprintf "Dag.add: %s expects %d children, got %d"
           (Logop.short_name op) n (List.length children))
  | _ -> ());
  let node = { id = b.count; op; children; schema } in
  b.rev_nodes <- node :: b.rev_nodes;
  b.count <- b.count + 1;
  node

let finish b ~root =
  { nodes = Array.of_list (List.rev b.rev_nodes); root = root.id }

let node t id = t.nodes.(id)
let root t = t.nodes.(t.root)
let size t = Array.length t.nodes
let schema t id = (node t id).schema

(* Nodes reachable from the root (the binder can leave dead nodes behind
   when a relation is defined but never consumed). *)
let reachable t =
  let seen = Array.make (size t) false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit (node t id).children
    end
  in
  visit t.root;
  seen

let fold_topological t f init =
  (* children before parents; node ids are not guaranteed topological once
     CSE rewrites happen, so do an explicit DFS. *)
  let seen = Array.make (size t) false in
  let acc = ref init in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit (node t id).children;
      acc := f !acc (node t id)
    end
  in
  visit t.root;
  !acc

let pp ppf t =
  let rec go indent id =
    let n = node t id in
    Fmt.pf ppf "%s[%d] %a %a@." (String.make indent ' ') n.id Logop.pp n.op
      Schema.pp n.schema;
    List.iter (go (indent + 2)) n.children
  in
  go 0 t.root
