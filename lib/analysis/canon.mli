(** Canonical relational-algebra forms for the cross-layer equivalence
    audit.

    Normalizes a bound logical DAG and a chosen physical plan into one
    hash-consed term language — predicates flattened/oriented/sorted and
    merged across adjacent filters, filters hoisted above joins,
    projection and aggregation parameter lists sorted, inner joins ordered
    modulo commutativity, UNION ALL trees flattened, and every purely
    physical artifact (spools, enforcers, the local/global aggregation
    split) erased.  Two sides denote the same query exactly when they
    intern to the same canonical id, so {!Equiv_audit} compares outputs by
    integer equality (SA050) and reports plan shapes with no logical
    meaning via {!Unrepresentable} (SA051).

    ORDER BY is deliberately not part of the canonical form: physical
    plans realize it as delivered properties on the OUTPUT input, audited
    separately (SA058). *)

(** The physical plan contains a shape with no canonical logical
    interpretation (e.g. an orphan local or global aggregation). *)
exception Unrepresentable of string

(** A hash-consing context; canonical ids are only comparable within one
    context. *)
type ctx

val create : unit -> ctx

(** An independent copy, which numbers new terms as the original would. *)
val copy : ctx -> ctx

(** One script output: target file, canonical id of the producing
    expression, and (logical side only) the ORDER BY requirement. *)
type out = { file : string; cid : int; order : (string * bool) list }

(** Canonical form of every output of the bound logical DAG. *)
val of_logical : ctx -> Slogical.Dag.t -> out list

(** Canonical form of every output of a physical plan, each with the
    delivered properties of its OUTPUT operator (for the SA058 ordering
    check).  Raises {!Unrepresentable} on shapes without logical
    meaning. *)
val of_physical : ctx -> Sphys.Plan.t -> (out * Sphys.Props.t) list

(** Render a canonical term (diagnostics and tests). *)
val to_string : ctx -> int -> string
