(** Generator for large scripts with the published structural statistics of
    the paper's real-world workloads (Figure 6):

    - LS1: 101 operators in the initial DAG; 4 shared groups
      (3 with 2 consumers, 1 with 3);
    - LS2: 1034 operators; 17 shared groups (15×2, 1×4, 1×5).

    A script is a set of shared modules (an extraction aggregated once and
    consumed k ways, optionally written as a textual duplicate so the
    fingerprint pass has real work) plus single-consumer filler pipelines
    sized to hit the exact operator count. *)

type spec = {
  name : string;
  shared_consumers : int list;  (** consumer multiplicity per shared group *)
  target_ops : int;  (** operators in the initial DAG *)
  duplicate_modules : int list;
      (** module indexes written as textual duplicates *)
  shared_rows : int;  (** input rows of shared modules (calibration) *)
  filler_rows : int;  (** input rows of filler pipelines (calibration) *)
}

val ls1_spec : spec
val ls2_spec : spec

(** Split [n] operators into filler pipelines; each pipeline of size
    [g + 2] contributes exactly its size, summing to [n]. *)
val filler_sizes : int -> int list

(** Register catalog statistics for every input file a generated script
    reads: [filler_rows] rows for a filler pipeline's input, [shared_rows]
    for every other extension-free file. *)
val register_files :
  shared_rows:int -> filler_rows:int -> Relalg.Catalog.t -> string -> unit

(** Generate the script text of a spec (deterministic). *)
val generate : spec -> string
