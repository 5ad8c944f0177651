(** Columnar batches for the vectorized executor: one value array per
    schema column plus an optional selection vector of live physical row
    indices (ascending).  Filters narrow the selection vector without
    touching column data; the other kernels produce dense batches.

    Every kernel preserves — or deterministically defines — the live-row
    order of its inputs, matching what the row-at-a-time engine produced,
    so a stream's row sequence does not depend on how it is chunked into
    batches. *)

type t = {
  schema : Relalg.Schema.t;
  len : int;  (** physical rows in [cols] *)
  cols : Relalg.Value.t array array;
      (** [cols.(c).(i)]: column [c] of physical row [i] *)
  sel : int array option;
      (** live physical indices, ascending; [None] = all rows live *)
}

(** Number of live rows. *)
val live : t -> int

val of_rows : Relalg.Schema.t -> Relalg.Value.t array list -> t

(** Live rows in live order. *)
val to_rows : t -> Relalg.Value.t array list

(** Concatenate live rows in list order into one dense batch. *)
val concat : Relalg.Schema.t -> t list -> t

(** Dense chunks of at most [size] live rows, empty batches dropped.
    Chunking changes only the framing of the row sequence, never the
    sequence itself. *)
val split : size:int -> t -> t list

(** Narrow the selection vector to live rows satisfying the predicate. *)
val filter : Relalg.Expr.compiled -> t -> t

(** One dense output column per compiled item, over the live rows. *)
val project : Relalg.Schema.t -> Relalg.Expr.compiled array -> t -> t

(** Stable sort on (column index, direction) keys — ties keep input
    order, like [List.stable_sort] over rows; already-sorted input comes
    back unchanged.

    When every key column is all-[Int] and the key span (the product of
    the per-key [max - min + 1]) is at most the row count, each row's key
    tuple is packed into one int from 0 to [span - 1] (most significant
    key first, a [Desc] digit as [hi - x]), whose int order is the key
    order, and counting-sorted: rows are placed in input order within
    each key, so ties keep input order.  Other keys, and wider spans,
    compare boxed values lexicographically with a stable sort. *)
val sort : (int * Sphys.Sortorder.dir) list -> t -> t

(** Route live rows by the commutative key hash; one physical-index
    array per destination, in input row order — a selection into the
    batch, no column data copied. *)
val scatter_sel : machines:int -> int array -> t -> int array array

(** One dense batch from (source batch, physical indices) fragments,
    rows in fragment order. *)
val gather : Relalg.Schema.t -> (t * int array) list -> t

(** Streaming aggregation over contiguous groups, carrying state across
    batch boundaries; output rows in group-arrival order. *)
val stream_agg :
  Relalg.Schema.t ->
  key_idx:int array ->
  aggs:Relalg.Agg.t array ->
  cargs:Relalg.Expr.compiled array ->
  t list ->
  t

(** Hash aggregation mirroring [Table.group_by]: output rows in
    first-seen key order. *)
val hash_agg :
  Relalg.Schema.t ->
  key_idx:int array ->
  aggs:Relalg.Agg.t array ->
  cargs:Relalg.Expr.compiled array ->
  t list ->
  t

(** Nested-loop join in the row engine's output order (left order, then
    right order per left row); [`Left_outer] pads unmatched left rows
    with nulls.  The predicate is compiled against [left @ right]. *)
val join : kind:[ `Inner | `Left_outer ] -> Relalg.Expr.compiled -> t -> t -> t
