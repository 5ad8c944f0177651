(** Algorithm 3: PropagateSharedGrpInfoAndFindLCA.

    Shared-group facts over the memo's reachable group DAG: the shared
    groups at or below each group, and each shared group's LCA
    (Definition 2) — the lowest group on every consumer-to-root path,
    which is {e not} necessarily the lowest common ancestor
    (Figure 3(c)).

    Deviation from the paper: Algorithm 3 propagates consumer-found
    flags bottom-up and sets the LCA incrementally, a rule that is
    traversal-order-sensitive (see the implementation comment and
    EXPERIMENTS.md).  Here each fact is computed once, exactly: the
    shared-below sets by reachability (one children-first pass), the LCA
    as the consumers' lowest common postdominator.  The incremental rule
    is not computed. *)

type t

(** The LCA of a shared group's consumers. *)
val lca_of_shared : t -> int -> int option

(** Shared groups whose LCA is the given group, ascending. *)
val lca_groups : t -> int -> int list

(** Shared groups at or below the given group, ascending. *)
val shared_below : t -> int -> int list

(** Id of the group's {!shared_below} set: groups with equal sets share
    the id; groups unknown to the analysis have none. *)
val below_class : t -> int -> int option

(** Known to the analysis, with no shared group at or below it. *)
val share_free : t -> int -> bool

(** Distinct consumer groups of a shared group. *)
val consumers : t -> int -> int list

(** Compute the shared-below sets and LCAs over the whole memo. *)
val compute : Smemo.Memo.t -> t
