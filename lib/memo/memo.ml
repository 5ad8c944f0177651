open Relalg

(* The memo structure (Section III): groups of logically equivalent
   expressions.  Each group expression is an operator whose children are
   group ids.  At construction (from the binder's DAG) every group holds
   exactly one expression; exploration rules add more, and the CSE
   framework (lib/core) merges equal groups and inserts spools.

   The one exploration rule, [gb_split], adds at most one expression to a
   group, so a group holds one or two expressions in a plain list, and
   [reachable], [parents] and [redirect] walk the groups afresh on every
   call. *)

type mexpr = { mop : Slogical.Logop.t; children : int list }

(* A memoized winner keeps the structured requirement it was optimized
   under (not just the canonical key) so the analysis layer can re-verify
   delivered-vs-required properties and recompute costs after the fact. *)
type winner = {
  wphase : int;
  wreq : Sphys.Reqprops.t;
  wenforce : (int * Sphys.Reqprops.t) list;
  wplan : Sphys.Plan.t option; (* [None] = proven infeasible *)
}

type group = {
  id : int;
  mutable exprs : mexpr list; (* insertion order *)
  schema : Schema.t;
  cols : Colset.t; (* [Schema.colset schema], built once for plan nodes *)
  mutable stats : Slogical.Stats.t;
  (* the exploration rules have run on this group *)
  mutable explored : bool;
  (* set by Algorithm 1 on spool groups that root a shared subexpression *)
  mutable shared : bool;
  (* winner table, keyed by the (phase x extended-required-property) id
     the optimizer packs from its run's interned ids (Sopt.Intern) *)
  winners : (int, winner) Hashtbl.t;
}

type t = {
  mutable groups : group array;
  mutable count : int;
  mutable root : int;
  catalog : Catalog.t;
  machines : int;
}

let group t id =
  if id < 0 || id >= t.count then invalid_arg "Memo.group: bad id";
  t.groups.(id)

let root_group t = group t t.root
let size t = t.count

let iter_groups t f =
  for i = 0 to t.count - 1 do
    f t.groups.(i)
  done

(* Output statistics of a new expression, derived from its children. *)
let derive_stats t (e : mexpr) schema =
  Slogical.Stats.derive ~machines:t.machines e.mop ~catalog:t.catalog ~schema
    (List.map (fun c -> (group t c).stats) e.children)

let add_group t (e : mexpr) schema =
  let g =
    {
      id = t.count;
      exprs = [ e ];
      schema;
      cols = Schema.colset schema;
      stats = derive_stats t e schema;
      explored = false;
      shared = false;
      winners = Hashtbl.create 8;
    }
  in
  if t.count = Array.length t.groups then begin
    (* grow, using [g] as the (never-read) filler *)
    let bigger = Array.make (max 16 (2 * Array.length t.groups)) g in
    Array.blit t.groups 0 bigger 0 t.count;
    t.groups <- bigger
  end;
  t.groups.(t.count) <- g;
  t.count <- t.count + 1;
  g

(* Add an equivalent expression to an existing group (exploration). *)
let add_expr (g : group) (e : mexpr) =
  if not (List.mem e g.exprs) then g.exprs <- g.exprs @ [ e ]

let of_dag ~catalog ~machines (dag : Slogical.Dag.t) : t =
  let t = { groups = [||]; count = 0; root = 0; catalog; machines } in
  (* keep only reachable nodes, renumbering densely in topological
     (children-first) order *)
  let mapping = Hashtbl.create 64 in
  let rec build id =
    match Hashtbl.find_opt mapping id with
    | Some gid -> gid
    | None ->
        let n = Slogical.Dag.node dag id in
        let children = List.map build n.Slogical.Dag.children in
        let g =
          add_group t
            { mop = n.Slogical.Dag.op; children }
            n.Slogical.Dag.schema
        in
        Hashtbl.replace mapping id g.id;
        g.id
  in
  t.root <- build (Slogical.Dag.root dag).Slogical.Dag.id;
  t

(* Children referenced by any expression of the group (the group DAG
   edges). *)
let group_children (g : group) =
  List.sort_uniq Int.compare (List.concat_map (fun e -> e.children) g.exprs)

(* Groups reachable from the root (merges and spool insertion leave dead
   groups behind; they are ignored everywhere). *)
let reachable t =
  let seen = Array.make t.count false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit (group_children (group t id))
    end
  in
  visit t.root;
  seen

(* Distinct parent groups of each group, ascending, counting reachable
   groups only. *)
let parents t =
  let live = reachable t in
  let ps = Array.make t.count [] in
  for p = t.count - 1 downto 0 do
    if live.(p) then
      List.iter (fun c -> ps.(c) <- p :: ps.(c)) (group_children t.groups.(p))
  done;
  ps

(* Redirect every reference to group [from_] so it points to [to_]
   ("make all the consumers point to this new node", Algorithm 1).
   [except] protects the new spool group's own expression. *)
let redirect t ~from_ ~to_ ~except =
  let repoint c = if c = from_ then to_ else c in
  let mentions e = List.mem from_ e.children in
  iter_groups t (fun g ->
      if g.id <> except && List.exists mentions g.exprs then
        g.exprs <-
          List.map
            (fun e ->
              if mentions e then
                { e with children = List.map repoint e.children }
              else e)
            g.exprs);
  if t.root = from_ then t.root <- to_

(* Winners of a group, in no particular order. *)
let winners_of (g : group) =
  Hashtbl.fold (fun _ w acc -> w :: acc) g.winners []

(* Number of logical expressions across all groups. *)
let expr_count t =
  let n = ref 0 in
  iter_groups t (fun g -> n := !n + List.length g.exprs);
  !n

let pp_mexpr ppf (e : mexpr) =
  Fmt.pf ppf "%a%s" Slogical.Logop.pp e.mop
    (match e.children with
    | [] -> ""
    | cs -> Fmt.str " [%s]" (String.concat "," (List.map string_of_int cs)))

let pp ppf t =
  iter_groups t (fun g ->
      Fmt.pf ppf "group %d%s%s: %a@." g.id
        (if g.shared then " (shared)" else "")
        (if g.id = t.root then " (root)" else "")
        Fmt.(list ~sep:(any " | ") pp_mexpr)
        g.exprs)
