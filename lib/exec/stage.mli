(** Stage-graph compilation: a physical plan DAG cut at data-movement and
    materialization boundaries (exchange, merge-exchange, gather, spool),
    SCOPE/Dryad style.

    A stage is a maximal operator subtree executed as one unit; boundary
    children become dependency edges to the stage producing them.  Spool
    boundaries are deduplicated by physical identity (one stage however
    many consumers), every other boundary is instantiated per reference —
    tree-expansion semantics, matching how the engine accounts each
    consumer's copy in the conventional baseline. *)

type stage = {
  id : int;
  root : Sphys.Plan.t;
  deps : (Sphys.Plan.t * int) list;
      (** boundary children of the interior in left-to-right depth-first
          (evaluation) order, each with its producing stage id *)
}

type graph = {
  stages : stage array;
      (** indexed by id, topologically ordered: every dependency's id is
          smaller than its consumer's *)
  sink : int;  (** the plan root's stage; always the last *)
}

(** Is the node a stage boundary (exchange / merge-exchange / gather /
    spool)? *)
val boundary : Sphys.Plan.t -> bool

val build : Sphys.Plan.t -> graph

(** Number of stages. *)
val size : graph -> int

(** Topological level per stage: 0 for dependency-free stages, else one
    more than the deepest dependency.  Equal-depth stages can execute
    concurrently in a fault-free run. *)
val depths : graph -> int array

(** Largest number of stages sharing a depth level — the fault-free
    parallelism available to the wave scheduler. *)
val width : graph -> int
