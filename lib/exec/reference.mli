(** Reference evaluator: executes the logical DAG directly over the same
    synthetic tables, with no parallelism or physical operators. Every
    physical plan must reproduce these outputs exactly. *)

val run : Relalg.Catalog.t -> Slogical.Dag.t -> (string * Relalg.Table.t) list
