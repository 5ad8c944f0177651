(** Algorithm 3: PropagateSharedGrpInfoAndFindLCA.

    Bottom-up propagation of shared-group information through the memo's
    group DAG, and identification of each shared group's LCA
    (Definition 2) — the lowest group on every consumer-to-root path,
    which is {e not} necessarily the lowest common ancestor
    (Figure 3(c)).

    Deviation from the paper: the incremental SetLCA-overwrite rule is
    traversal-order-sensitive (see the implementation comment and
    EXPERIMENTS.md); the final LCA is computed exactly as the consumers'
    lowest common postdominator. The paper's propagation is kept — it
    yields the shared-below sets used for enforcement pruning and the
    VIII-A independence test. *)

type shrd = {
  shared : int;  (** the shared (spool) group *)
  consumers : (int * bool ref) list;  (** consumer -> found below here *)
}

type t = {
  info : (int, shrd list) Hashtbl.t;
  lca : (int, int) Hashtbl.t;
  consumers_of : (int, int list) Hashtbl.t;
  lca_of_group : (int, int list) Hashtbl.t;
      (** group -> the shared groups it is the LCA of, ascending *)
  below_class : (int, int) Hashtbl.t;
      (** group -> id of its {!shared_below} set: groups with equal sets
          share the id; groups unknown to the analysis have none *)
}

(** The LCA of a shared group's consumers. *)
val lca_of_shared : t -> int -> int option

(** Shared groups whose LCA is the given group, ascending. *)
val lca_groups : t -> int -> int list

(** Shared groups at or below the given group. *)
val shared_below : t -> int -> int list

(** Distinct consumer groups of a shared group. *)
val consumers : t -> int -> int list

(** Run the propagation and LCA identification over the whole memo. *)
val compute : Smemo.Memo.t -> t
