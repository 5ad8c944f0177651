(** Independent plan validity checker.

    Verifies every operator's input requirements against the properties its
    children actually deliver: stream aggregations receive input sorted on
    their keys and partitioned within them, joins receive co-partitioned
    (and, for merge joins, compatibly sorted) inputs, referenced columns
    exist, and recorded delivered properties match re-derivation. The
    audits run plans through {!check_op} and {!validate}; the optimizer
    vets each candidate with the same checks split in two, {!static_ok}
    and {!inputs_ok}. *)

type violation = { where : string; what : string }

(** The sort order's first [length keys] columns cover exactly the key
    set — any permutation of the keys is an acceptable grouping order.
    With [keys = []] any input (even unsorted) qualifies. *)
val sorted_on_keys : Sortorder.t -> string list -> bool

(** Aligned co-partitioning for a join: serial on both sides, or some
    subset of the equality pairs maps the left hashing set one-to-one
    onto the right one.  Roundrobin and serial/hashed mixes never
    qualify. *)
val co_partitioned :
  (string * string) list -> Partition.t -> Partition.t -> bool

(** No violation that depends only on the operator and its children's
    schemas: column references and arity.  [static_ok op schemas] with
    [inputs_ok op props] holds exactly when {!check_op} reports nothing
    but, possibly, a delivered-properties mismatch. *)
val static_ok : Physop.t -> Relalg.Schema.t list -> bool

(** The operator's input requirements hold against its children's
    delivered properties (sorted and partitioned aggregation inputs,
    co-partitioned and aligned join inputs). *)
val inputs_ok : Physop.t -> Props.t list -> bool

(** All violations local to one plan node (children are not recursed
    into). *)
val check_op : Plan.t -> violation list

(** Check the whole plan; [Ok ()] when no operator is violated. *)
val validate : Plan.t -> (unit, violation list) result

val violations_to_string : violation list -> string
