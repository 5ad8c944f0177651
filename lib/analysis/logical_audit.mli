(** Logical-DAG lint over binder output.

    Checks that every column an operator references resolves in its
    children's schemas (SA020) and that the statistics derived for every
    node are sane: finite, non-negative row counts, row widths and NDVs
    (SA021), with a warning when a column's NDV exceeds the node's
    estimated row count (SA022). *)

(** Sanity diagnostics for one statistics record (shared with the memo
    auditor, which checks group statistics the same way). *)
val stats_diags : loc:Diag.location -> Slogical.Stats.t -> Diag.t list

(** Run the lint over every reachable node of the DAG. *)
val run :
  catalog:Relalg.Catalog.t -> machines:int -> Slogical.Dag.t -> Diag.t list
