(** Static interference audit over the stage graph (SA056/SA057).

    Lifts the domain-parallel executor's determinism contract into a
    static check: no two concurrently schedulable stages may write the
    same spool/cache cell (SA057), and every cross-stage read must be
    ordered by a dependency edge to its producer (SA056). *)

val check_graph : Sexec.Stage.graph -> Diag.t list
