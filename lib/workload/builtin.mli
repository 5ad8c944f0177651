(** The builtin workloads, one registry: [scopeopt -b NAME], the bench,
    the examples and the tests read a builtin's script and catalog here,
    so a name means the same workload everywhere.  No builtin carries an
    optimization budget: Section IX's 30 s / 60 s wall budgets for LS1
    and LS2 are a recorded deviation (EXPERIMENTS.md), and a budget is
    a task cap the caller chooses. *)

type t = {
  name : string;  (** S1, S2, S3, S4, IND, LS1 or LS2 *)
  script : string;
  catalog : unit -> Relalg.Catalog.t;
      (** a fresh catalog: the default one, plus LS1/LS2's inputs at their
          spec's calibrated row counts (EXPERIMENTS.md) *)
}

(** The small scripts, S1-S4 and IND, on the default catalog: the
    prefix of {!all} that leaves out LS1 and LS2. *)
val small : t list

(** In the order of {!names}. *)
val all : t list

(** The entry named [name], in any case. *)
val find : string -> t option

(** ["S1, S2, S3, S4, IND, LS1 or LS2"], for help text. *)
val names : string

(** The catalog of a script given as text: the default one, plus every
    extension-free input file it reads at 50 M rows. *)
val text_catalog : string -> Relalg.Catalog.t
