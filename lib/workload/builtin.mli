(** The builtin workloads, one registry: [scopeopt -b NAME], the bench,
    the examples and the tests read a builtin's script, catalog and budget
    here, so a name means the same workload everywhere. *)

type t = {
  name : string;  (** S1, S2, S3, S4, IND, LS1 or LS2 *)
  script : string;
  catalog : unit -> Relalg.Catalog.t;
      (** a fresh catalog: the default one, plus LS1/LS2's inputs at their
          spec's calibrated row counts (EXPERIMENTS.md) *)
  budget_seconds : float option;
      (** the Section IX budget: none, or 30 s for LS1 and 60 s for LS2 *)
}

(** In the order of {!names}. *)
val all : t list

(** The entry named [name], in any case. *)
val find : string -> t option

(** ["S1, S2, S3, S4, IND, LS1 or LS2"], for help text. *)
val names : string

(** The catalog of a script given as text: the default one, plus every
    extension-free input file it reads at 50 M rows. *)
val text_catalog : string -> Relalg.Catalog.t
