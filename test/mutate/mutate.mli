(** Mutation harness for the analyzers: a corpus of targeted corruptions
    of memos, logical DAGs, physical plans, sharing structures and stage
    graphs, each paired with the diagnostic code expected to catch it.

    A mutation runs the full pipeline on a real workload, audits the
    relevant layer (which must be clean and must not already carry the
    expected code — no vacuous experiments), injects exactly one
    corruption and audits again.  {!verify} enforces the contract;
    [test/test_mutation.ml] iterates {!all}. *)

type mutation = {
  mname : string;  (** unique label, [SAxxx what-was-corrupted] *)
  mcode : string;  (** the diagnostic expected to catch the corruption *)
  mrun : unit -> Sanalysis.Diag.t list * Sanalysis.Diag.t list;
      (** run the experiment: (baseline diags, post-corruption diags) *)
}

(** The corpus, in catalog order of the expected codes. *)
val all : mutation list

(** Run one mutation and check its three-part contract: the expected code
    is absent from the baseline, the baseline has no error-severity
    findings, and the corrupted structure is reported under the expected
    code.  [Error] carries a human-readable explanation (including
    harness failures such as an exception during the corruption). *)
val verify : mutation -> (unit, string) result

(** Every memo-layer corruption of {!all}, each applied to the memo of a
    fresh pipeline run: label, cluster and corrupted memo.  Lets tests
    compare {!Sanalysis.Memo_audit.run} against an independent reference on
    corrupted memos too. *)
val corrupted_memos : unit -> (string * Scost.Cluster.t * Smemo.Memo.t) list
