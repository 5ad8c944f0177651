(** The memo structure (Section III): groups of logically equivalent
    expressions, each expression an operator over child group ids. At
    construction every group holds exactly one expression; exploration
    rules add more, and the CSE framework merges equal groups and inserts
    spools.

    The one exploration rule adds at most one expression to a group, so a
    group's expressions are a plain list, and {!reachable}, {!parents}
    and {!redirect} walk the groups afresh on every call. *)

type mexpr = { mop : Slogical.Logop.t; children : int list }

(** A memoized winner with the structured requirement it was optimized
    under, kept so the analysis layer can re-verify it after the fact. *)
type winner = {
  wphase : int;
  wreq : Sphys.Reqprops.t;
  wenforce : (int * Sphys.Reqprops.t) list;
  wplan : Sphys.Plan.t option;  (** [None] = proven infeasible *)
}

type group = {
  id : int;
  mutable exprs : mexpr list;  (** in insertion order *)
  schema : Relalg.Schema.t;
  cols : Relalg.Colset.t;  (** the schema's column set *)
  mutable stats : Slogical.Stats.t;
  mutable explored : bool;
      (** the exploration rules have run on this group (the rule set is
          the same in every optimization phase) *)
  mutable shared : bool;
      (** set by Algorithm 1 on spool groups rooting a shared subexpression *)
  winners : (int, winner) Hashtbl.t;
      (** best plan per (phase × extended-requirement) key, packed from
          one optimizer run's interned ids (see [Sopt.Intern]); a
          share-free group's key omits the phase *)
}

type t = {
  mutable groups : group array;
  mutable count : int;
  mutable root : int;
  catalog : Relalg.Catalog.t;
  machines : int;
}

(** Group by id; raises [Invalid_argument] on bad ids. *)
val group : t -> int -> group

val root_group : t -> group
val size : t -> int
val iter_groups : t -> (group -> unit) -> unit

(** Append a fresh group holding one expression. *)
val add_group : t -> mexpr -> Relalg.Schema.t -> group

(** Append an equivalent expression (ignored when structurally already
    present). *)
val add_expr : group -> mexpr -> unit

(** Build the initial memo from a logical DAG: one group per reachable
    node, renumbered children-first. *)
val of_dag : catalog:Relalg.Catalog.t -> machines:int -> Slogical.Dag.t -> t

(** Child groups referenced by any expression of the group. *)
val group_children : group -> int list

(** Which groups are reachable from the root (rewrites leave dead groups
    behind). *)
val reachable : t -> bool array

(** Distinct parents per group, ascending, counting reachable groups
    only. *)
val parents : t -> int list array

(** Redirect every reference to [from_] so it points to [to_]; the group
    [except] (typically the new spool) keeps its reference. *)
val redirect : t -> from_:int -> to_:int -> except:int -> unit

(** Recorded winners of a group, in no particular order. *)
val winners_of : group -> winner list

(** Total number of logical expressions. *)
val expr_count : t -> int

val pp : t Fmt.t
