(** Stage-graph auditor (SA040-SA044).

    Re-derives the staged executor's structural invariants from the plan,
    independently of {!Sexec.Stage.build}: topological stage ids (SA040),
    dependency lists matching the interior's left-to-right boundary walk
    (SA041), physical sharing flowing through spools only (SA042, warning),
    OUTPUT / SEQUENCE confined to the sink stage (SA043), and every stage
    a transitive dependency of the sink (SA044) — the invariant the
    parallel wave scheduler's demand closure and sink-isolation rest on.
    Stage locations are reported as [Diag.Node] of the stage id. *)

(** Boundary children of a stage interior, one per reference, in the
    left-to-right depth-first order the engine's evaluator consumes
    them: re-derived from the plan, not read from {!Sexec.Stage.build}. *)
val interior_boundaries : Sphys.Plan.t -> Sphys.Plan.t list

(** Audit an already-built stage graph against its plan.  With
    [~expect_spooled_sharing:false] (the conventional baseline, which
    shares winner subplans physically by design) SA042 is not emitted. *)
val check_graph :
  ?expect_spooled_sharing:bool ->
  Sphys.Plan.t ->
  Sexec.Stage.graph ->
  Diag.t list
