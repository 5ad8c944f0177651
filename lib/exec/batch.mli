(** Columnar batches for the vectorized executor: one value array per
    schema column plus an optional selection vector of live physical row
    indices, in live order.

    Row order and row subsets travel in the selection vector, not in
    column data.  Four kernels return selection batches over their
    input's column arrays: {!filter} narrows the selection, {!sort}
    permutes it, a {!project} of bare columns keeps it and {!split} cuts
    it into slices.  The other kernels produce dense batches.  Columns
    are never mutated, so any number of batches may share them.

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
      (** live physical indices in live order: distinct, not necessarily
          ascending; [None] = every row live, in physical order *)
}

(** Number of live rows. *)
val live : t -> int

val of_rows : Relalg.Schema.t -> Relalg.Value.t array list -> t

(** Live rows in live order. *)
val to_rows : t -> Relalg.Value.t array list

(** Concatenate live rows in list order into one dense batch. *)
val concat : Relalg.Schema.t -> t list -> t

(** Chunks of at most [size] live rows, empty batches dropped.  A batch
    with at most [size] live rows comes back as is; a larger one is cut
    into consecutive slices of its selection that share its columns.
    Chunking changes only the framing of the row sequence, never the
    sequence itself. *)
val split : size:int -> t -> t list

(** Narrow the selection vector to live rows satisfying the predicate,
    in live order; column data is shared.  Comparisons and connectives
    are evaluated to [bool], with [Relalg.Value.is_truthy] semantics. *)
val filter : Relalg.Expr.compiled -> t -> t

(** One output column per compiled item, over the live rows.  When every
    item is a bare column ([CCol]) the result shares the input's column
    arrays and keeps its selection; otherwise it is dense. *)
val project : Relalg.Schema.t -> Relalg.Expr.compiled array -> t -> t

(** Stable sort on (column index, direction) keys — ties keep live
    order, like [List.stable_sort] over rows; already-sorted input comes
    back unchanged.  The result is the input's columns with the sorted
    permutation of its live physical indices as selection: no column
    data moves.

    When every key column is all-[Int] over the live rows and the key
    span (the product of the per-key [max - min + 1]) is at most the
    live row count [n], each row's key tuple is packed into one int from
    0 to [span - 1] (most significant key first, a [Desc] digit as
    [hi - x]), whose int order is the key order, and counting-sorted:
    rows are placed in live order within each key, so ties keep input
    order.  That path allocates the [n]-word permutation it returns and
    at most [2n + 1] scratch words (packed keys and counts).  Other
    keys, and wider spans, stable-sort an [n]-word permutation with a
    lexicographic comparator over boxed values. *)
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

(** Nested-loop join in the row engine's output order (left order, then
    right order per left row); [`Left_outer] pads unmatched left rows
    with nulls.  The predicate is compiled against [left @ right]. *)
val join : kind:[ `Inner | `Left_outer ] -> Relalg.Expr.compiled -> t -> t -> t
