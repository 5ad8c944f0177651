(** Deterministic synthetic data generation driven by the catalog.

    Execution runs on a scaled-down copy of each input: row counts are
    capped at 2 000 and NDVs scaled so grouping still aggregates. The
    same file name always yields the same rows. *)

(** The (scaled) table of a catalog file restricted to [schema]'s columns;
    empty for unknown files. *)
val table :
  Relalg.Catalog.t ->
  file:string ->
  schema:Relalg.Schema.t ->
  Relalg.Table.t
