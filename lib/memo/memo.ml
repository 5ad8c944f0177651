open Relalg

(* The memo structure (Section III): groups of logically equivalent
   expressions.  Each group expression is an operator whose children are
   group ids.  At construction (from the binder's DAG) every group holds
   exactly one expression; exploration rules add more, and the CSE
   framework (lib/core) merges equal groups and inserts spools.

   The structure is engineered for the optimizer's hot path:

   - expression lists support O(1) amortized append with hashtable-backed
     structural dedup (the forward-order list is rebuilt lazily);
   - every group maintains a reference-counted table of the groups whose
     expressions point at it, so [parents] and [redirect] touch only the
     actual referrers instead of rescanning the whole memo;
   - reachability and parent arrays are cached and invalidated by the
     mutating operations, so back-to-back queries between mutations (the
     common pattern in Algorithm 1 and the audits) cost one traversal. *)

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
  (* expressions, newest first; the forward-order view is [exprs] *)
  mutable exprs_rev : mexpr list;
  mutable exprs_fwd : mexpr list; (* cache; valid when not [exprs_dirty] *)
  mutable exprs_dirty : bool;
  (* structural multiset of the group's expressions (dedup + redirect) *)
  expr_index : (mexpr, int) Hashtbl.t;
  (* referrer gid -> number of child slots in its exprs pointing here *)
  parent_refs : (int, int) Hashtbl.t;
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
  (* demand-built caches, invalidated by every edge mutation *)
  mutable live_cache : bool array;
  mutable live_valid : bool;
  mutable parents_cache : int list array;
  mutable parents_valid : bool;
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

(* Expressions of a group in insertion order. *)
let exprs g =
  if g.exprs_dirty then begin
    g.exprs_fwd <- List.rev g.exprs_rev;
    g.exprs_dirty <- false
  end;
  g.exprs_fwd

let invalidate t =
  t.live_valid <- false;
  t.parents_valid <- false

(* --- incremental referrer maintenance ---------------------------------- *)

let add_parent_edge t ~parent ~child =
  let c = group t child in
  let cur = Option.value ~default:0 (Hashtbl.find_opt c.parent_refs parent) in
  Hashtbl.replace c.parent_refs parent (cur + 1)

let remove_parent_edge t ~parent ~child =
  let c = group t child in
  match Hashtbl.find_opt c.parent_refs parent with
  | None -> ()
  | Some n when n <= 1 -> Hashtbl.remove c.parent_refs parent
  | Some n -> Hashtbl.replace c.parent_refs parent (n - 1)

let index_add g e =
  Hashtbl.replace g.expr_index e
    (1 + Option.value ~default:0 (Hashtbl.find_opt g.expr_index e))

let index_remove g e =
  match Hashtbl.find_opt g.expr_index e with
  | None -> ()
  | Some n when n <= 1 -> Hashtbl.remove g.expr_index e
  | Some n -> Hashtbl.replace g.expr_index e (n - 1)

let mem_expr g e = Hashtbl.mem g.expr_index e

(* Output statistics of a new expression, derived from its children. *)
let derive_stats t (e : mexpr) schema =
  Slogical.Stats.derive ~machines:t.machines e.mop ~catalog:t.catalog ~schema
    (List.map (fun c -> (group t c).stats) e.children)

let add_group t (e : mexpr) schema =
  let g =
    {
      id = t.count;
      exprs_rev = [ e ];
      exprs_fwd = [ e ];
      exprs_dirty = false;
      expr_index = Hashtbl.create 4;
      parent_refs = Hashtbl.create 4;
      schema;
      cols = Schema.colset schema;
      stats = derive_stats t e schema;
      explored = false;
      shared = false;
      winners = Hashtbl.create 8;
    }
  in
  index_add g e;
  if t.count = Array.length t.groups then begin
    (* grow, using [g] as the (never-read) filler *)
    let bigger = Array.make (max 16 (2 * Array.length t.groups)) g in
    Array.blit t.groups 0 bigger 0 t.count;
    t.groups <- bigger
  end;
  t.groups.(t.count) <- g;
  t.count <- t.count + 1;
  List.iter (fun c -> add_parent_edge t ~parent:g.id ~child:c) e.children;
  invalidate t;
  g

(* Add an equivalent expression to an existing group (exploration).
   Hashtable-backed: O(1) amortized instead of a structural list scan plus
   a quadratic list append. *)
let add_expr t (g : group) (e : mexpr) =
  if not (mem_expr g e) then begin
    g.exprs_rev <- e :: g.exprs_rev;
    g.exprs_dirty <- true;
    index_add g e;
    List.iter (fun c -> add_parent_edge t ~parent:g.id ~child:c) e.children;
    invalidate t
  end

(* Replace the expression list wholesale (tests and corruption harnesses);
   keeps the index and referrer tables consistent. *)
let set_exprs t (g : group) (es : mexpr list) =
  List.iter
    (fun e ->
      index_remove g e;
      List.iter
        (fun c ->
          if c >= 0 && c < t.count then
            remove_parent_edge t ~parent:g.id ~child:c)
        e.children)
    (exprs g);
  g.exprs_rev <- List.rev es;
  g.exprs_fwd <- es;
  g.exprs_dirty <- false;
  List.iter
    (fun e ->
      index_add g e;
      List.iter
        (fun c ->
          if c >= 0 && c < t.count then add_parent_edge t ~parent:g.id ~child:c)
        e.children)
    es;
  invalidate t

let of_dag ~catalog ~machines (dag : Slogical.Dag.t) : t =
  let t =
    {
      groups = [||];
      count = 0;
      root = 0;
      catalog;
      machines;
      live_cache = [||];
      live_valid = false;
      parents_cache = [||];
      parents_valid = false;
    }
  in
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
  List.sort_uniq Int.compare (List.concat_map (fun e -> e.children) (exprs g))

(* Groups reachable from the root (merges and spool insertion leave dead
   groups behind; they are ignored everywhere).  Cached between
   mutations; callers must not mutate the returned array. *)
let reachable t =
  if t.live_valid && Array.length t.live_cache = t.count then t.live_cache
  else begin
    let seen = Array.make t.count false in
    let rec visit id =
      if not seen.(id) then begin
        seen.(id) <- true;
        List.iter visit (group_children (group t id))
      end
    in
    visit t.root;
    t.live_cache <- seen;
    t.live_valid <- true;
    seen
  end

(* Distinct parent groups of each group, counting reachable groups only.
   Served from the referrer tables; cached between mutations; callers must
   not mutate the returned array. *)
let parents t =
  if t.parents_valid && Array.length t.parents_cache = t.count then
    t.parents_cache
  else begin
    let live = reachable t in
    let ps =
      Array.init t.count (fun c ->
          Hashtbl.fold
            (fun p _ acc -> if live.(p) then p :: acc else acc)
            (group t c).parent_refs []
          |> List.sort Int.compare)
    in
    t.parents_cache <- ps;
    t.parents_valid <- true;
    ps
  end

(* Redirect every reference to group [from_] so it points to [to_]
   ("make all the consumers point to this new node", Algorithm 1).
   [except] protects the new spool group's own expression.  Incremental:
   only the actual referrers of [from_] are rewritten. *)
let redirect t ~from_ ~to_ ~except =
  let from_g = group t from_ in
  let referrers =
    Hashtbl.fold (fun p _ acc -> p :: acc) from_g.parent_refs []
    |> List.sort Int.compare
  in
  List.iter
    (fun p ->
      if p <> except then begin
        let pg = group t p in
        let rewritten =
          List.map
            (fun e ->
              if List.mem from_ e.children then begin
                List.iter
                  (fun c ->
                    if c = from_ then begin
                      remove_parent_edge t ~parent:p ~child:from_;
                      add_parent_edge t ~parent:p ~child:to_
                    end)
                  e.children;
                let e' =
                  {
                    e with
                    children =
                      List.map
                        (fun c -> if c = from_ then to_ else c)
                        e.children;
                  }
                in
                index_remove pg e;
                index_add pg e';
                e'
              end
              else e)
            (exprs pg)
        in
        pg.exprs_rev <- List.rev rewritten;
        pg.exprs_fwd <- rewritten;
        pg.exprs_dirty <- false
      end)
    referrers;
  if t.root = from_ then t.root <- to_;
  invalidate t

(* Winners of a group, in no particular order. *)
let winners_of (g : group) =
  Hashtbl.fold (fun _ w acc -> w :: acc) g.winners []

(* Number of logical expressions across all groups. *)
let expr_count t =
  let n = ref 0 in
  iter_groups t (fun g -> n := !n + List.length (exprs g));
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
        (exprs g))
