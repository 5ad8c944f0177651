(** File catalog: per-file row counts, widths and per-column NDV statistics
    feeding both cardinality estimation and synthetic data generation. *)

type col_stats = { col : Schema.column; ndv : int }

type file_stats = {
  path : string;
  rows : int;
  row_bytes : int;
  columns : col_stats list;
}

type t

val create : unit -> t

(** Register a file's statistics.  Re-registering an existing path with
    {e different} statistics bumps the catalog {!version} (cached plans
    for scripts reading it are stale); registering a brand-new path does
    not (existing plans cannot reference it). *)
val register : t -> file_stats -> unit

(** Statistics epoch of the catalog, starting at 0.  Long-lived plan
    caches (the serve engine) key cached plans on it: a bump invalidates
    every plan optimized under an older version. *)
val version : t -> int

(** Explicitly start a new statistics epoch (e.g. the serve protocol's
    [#catalog-bump] directive). *)
val bump_version : t -> unit
val find : t -> string -> file_stats option

(** Schema induced by the catalog entry. *)
val file_schema : file_stats -> Schema.t

(** NDV of a column; a coarse default when the column is unknown. *)
val col_ndv : file_stats -> string -> int

val mk_file :
  path:string ->
  rows:int ->
  row_bytes:int ->
  (string * Schema.coltype * int) list ->
  file_stats

(** Catalog pre-populated with the statistics used by the paper-script
    experiments ([test.log], [test2.log]). *)
val default : unit -> t

(** Look up a file, registering synthetic default statistics when absent. *)
val ensure : t -> path:string -> schema:Schema.t -> file_stats
