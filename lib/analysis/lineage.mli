(** Column-level provenance for the cross-layer audit.

    Assigns every column of every intermediate result an interned lineage
    id — a base-table column or a derivation over argument ids — computed
    independently on the logical DAG, the physical plan and the memo, so
    {!Equiv_audit} can compare "same sources, same operations" per output
    column as an integer comparison (SA052) and {!of_memo} can flag memo
    groups whose expressions disagree on provenance (SA055).

    Spools and enforcers are lineage-transparent; a global aggregation
    directly combining a matching local pre-aggregation collapses to the
    single logical aggregation it implements. *)

type ctx

val create : unit -> ctx

(** Lineage id per column name, in schema order. *)
type env = (string * int) list

(** Per-output lineage environments of the bound DAG, keyed by output
    file. *)
val of_dag : ctx -> Slogical.Dag.t -> (string * env) list

(** Per-output lineage environments of a physical plan, keyed by output
    file. *)
val of_plan : ctx -> Sphys.Plan.t -> (string * env) list

(** SA055 diagnostics: reachable memo groups whose expressions derive
    different lineage for the same columns.  Cyclic memos are skipped
    (SA001 owns those). *)
val of_memo : ctx -> Smemo.Memo.t -> Diag.t list
