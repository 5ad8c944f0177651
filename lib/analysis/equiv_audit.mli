(** Cross-layer semantic-equivalence auditor (SA050–SA054, SA058).

    Proves, per script output, that a chosen physical plan is a semantic
    refinement of the bound logical DAG: canonical algebra forms coincide
    (SA050), every physical shape has a logical meaning (SA051), column
    lineage matches (SA052), spools and enforcers preserve content
    (SA053), spool consumers only read produced columns (SA054), and
    ORDER BY requirements are physically delivered (SA058). *)

(** Audit each physical plan, in order, against the bound logical DAG,
    whose canonical forms and lineage are built once for all of them. *)
val run : dag:Slogical.Dag.t -> Sphys.Plan.t list -> Diag.t list
