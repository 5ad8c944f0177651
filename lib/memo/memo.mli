(** The memo structure (Section III): groups of logically equivalent
    expressions, each expression an operator over child group ids. At
    construction every group holds exactly one expression; exploration
    rules add more, and the CSE framework merges equal groups and inserts
    spools.

    Engineered for the optimizer's hot path: expression append is O(1)
    amortized with hashtable-backed structural dedup, every group tracks
    its referrers incrementally (so {!parents} and {!redirect} touch only
    actual referrers), and reachability/parent arrays are cached between
    mutations. *)

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
  mutable exprs_rev : mexpr list;
      (** newest first — internal; read through {!exprs} *)
  mutable exprs_fwd : mexpr list;
      (** forward-order cache — internal; read through {!exprs} *)
  mutable exprs_dirty : bool;  (** internal: [exprs_fwd] needs a rebuild *)
  expr_index : (mexpr, int) Hashtbl.t;
      (** internal: structural multiset of the group's expressions *)
  parent_refs : (int, int) Hashtbl.t;
      (** internal: referrer gid → number of child slots pointing here *)
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
          one optimizer run's interned ids (see [Sopt.Intern]) *)
}

type t = {
  mutable groups : group array;
  mutable count : int;
  mutable root : int;
  catalog : Relalg.Catalog.t;
  machines : int;
  mutable live_cache : bool array;  (** internal: see {!reachable} *)
  mutable live_valid : bool;
  mutable parents_cache : int list array;  (** internal: see {!parents} *)
  mutable parents_valid : bool;
}

(** Group by id; raises [Invalid_argument] on bad ids. *)
val group : t -> int -> group

val root_group : t -> group
val size : t -> int
val iter_groups : t -> (group -> unit) -> unit

(** The group's expressions in insertion order. O(1) amortized. *)
val exprs : group -> mexpr list

(** Append a fresh group holding one expression. *)
val add_group : t -> mexpr -> Relalg.Schema.t -> group

(** Add an equivalent expression (ignored when structurally already
    present). O(1) amortized: hashtable membership plus list cons. *)
val add_expr : t -> group -> mexpr -> unit

(** Replace a group's expression list wholesale, keeping the dedup index
    and referrer tables consistent (tests and corruption harnesses). *)
val set_exprs : t -> group -> mexpr list -> unit

(** Build the initial memo from a logical DAG: one group per reachable
    node, renumbered children-first. *)
val of_dag : catalog:Relalg.Catalog.t -> machines:int -> Slogical.Dag.t -> t

(** Child groups referenced by any expression of the group. *)
val group_children : group -> int list

(** Which groups are reachable from the root (rewrites leave dead groups
    behind). Cached between mutations — do not mutate the result. *)
val reachable : t -> bool array

(** Distinct parents per group, counting reachable groups only. Served
    from the incrementally-maintained referrer tables and cached between
    mutations — do not mutate the result. *)
val parents : t -> int list array

(** Redirect every reference to [from_] so it points to [to_]; the group
    [except] (typically the new spool) keeps its reference. Touches only
    the actual referrers of [from_]. *)
val redirect : t -> from_:int -> to_:int -> except:int -> unit

(** Recorded winners of a group, in no particular order. *)
val winners_of : group -> winner list

(** Total number of logical expressions. *)
val expr_count : t -> int

val pp : t Fmt.t
