(** Cardinality and NDV estimation.

    Estimates derive per operator from child estimates, so one rule set
    serves both the initial DAG and memo groups created by exploration.
    Standard assumptions: column independence, join containment, fixed
    selectivity for opaque predicates. Both optimization modes share this
    model — the paper's evaluation compares estimated costs. *)

type t = {
  rows : float;
  row_bytes : float;
  ndvs : (string * float) list;
      (** per-column distinct values; absent columns default to [rows] *)
}

(** NDV of a combined key: product of column NDVs capped by the row
    count. *)
val colset_ndv : t -> Relalg.Colset.t -> float

(** Output statistics of one operator application. [machines] bounds the
    output of per-machine pre-aggregation. *)
val derive :
  machines:int ->
  Logop.t ->
  catalog:Relalg.Catalog.t ->
  schema:Relalg.Schema.t ->
  t list ->
  t
