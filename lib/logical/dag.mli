(** The logical operator DAG produced by the binder: densely numbered
    nodes, children referenced by id. A node referenced by several parents
    is an explicit common subexpression (Figure 1(a), node 2). *)

type node = {
  id : int;
  op : Logop.t;
  children : int list;
  schema : Relalg.Schema.t;
}

type t = { nodes : node array; root : int }

(** Mutable construction state. *)
type builder

val builder : unit -> builder

(** [add b op children child_schemas] appends a node, deriving its schema.
    Raises [Invalid_argument] on arity mismatch. *)
val add : builder -> Logop.t -> int list -> Relalg.Schema.t list -> node

val finish : builder -> root:node -> t

(** Node by id; raises on bad ids. *)
val node : t -> int -> node

val root : t -> node
val size : t -> int
val schema : t -> int -> Relalg.Schema.t

(** Which nodes are reachable from the root. *)
val reachable : t -> bool array

(** Fold children-before-parents over the reachable nodes. *)
val fold_topological : t -> ('a -> node -> 'a) -> 'a -> 'a

val pp : t Fmt.t
