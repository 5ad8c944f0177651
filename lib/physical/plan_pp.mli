(** Plan rendering in the spirit of Figure 8: one operator per line with
    its delivered properties and its region cost ([Plan.sbase], the
    subtree total up to spool boundaries); a shared spool subplan is
    printed once and back-referenced afterwards. *)

val pp : Plan.t Fmt.t

(** Graphviz (dot) rendering; physically shared subplans appear once, so
    the executed DAG structure is visible.  Each node's [cost=] is the
    region cost {!pp} prints. *)
val to_dot : ?name:string -> Plan.t -> string
