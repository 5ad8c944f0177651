(** The evaluation scripts of Figure 6, verbatim. *)

(** Single shared group with two consumers (the motivating script of
    Section I). *)
val s1 : string

(** Single shared group with three consumers. *)
val s2 : string

(** Two shared groups with different LCAs (the two joins). *)
val s3 : string

(** Two-consumer shared groups whose LCA is not the lowest common ancestor
    (Figure 3(c)); three shared groups under Algorithm 1. *)
val s4 : string

(** Two independent shared groups under a single LCA (Figure 5 /
    Section VIII-A). *)
val independent_pair : string
