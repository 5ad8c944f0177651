(** The diagnostics framework of the static-analysis layer.

    Every analyzer pass reports findings as {!t} values carrying a stable
    code ([SA0xx]), a severity, a location inside the audited structure and
    a human-readable message. The framework provides the code catalog, a
    pretty reporter, a machine-readable summary and the exit-code mapping
    used by [scopeopt lint]. *)

type severity = Error | Warning | Info

type location =
  | Group of int  (** a memo group *)
  | Winner of int * string
      (** a memoized winner: group id × requirement description *)
  | Node of int  (** a logical-DAG node (or a stage id) *)
  | Operator of string  (** a physical plan operator *)
  | Output of string  (** a script output, by target file *)
  | Whole  (** the audited structure as a whole *)

type t = {
  code : string;  (** stable diagnostic code, e.g. ["SA003"] *)
  severity : severity;
  loc : location;
  message : string;
}

(** One catalog registration: code, default severity, the layer the
    emitting pass audits (memo, plan, stages, cross-layer, ...) and a
    short description. *)
type entry = {
  ecode : string;
  eseverity : severity;
  layer : string;
  describe : string;
}

(** Catalog lookup by code. *)
val find_entry : string -> entry option

(** Build a diagnostic; the severity defaults to the catalog entry's.
    Raises [Invalid_argument] on a code missing from the catalog. *)
val make : ?severity:severity -> code:string -> loc:location -> string -> t

val errors : t list -> t list

(** Highest severity present, [None] on an empty report. *)
val worst : t list -> severity option

(** Exit-code mapping: [0] when no diagnostic at or above [fail_on]
    (default [Error]) was reported, [1] otherwise. *)
val exit_code : ?fail_on:severity -> t list -> int

(** Full human-readable report: one line per diagnostic, sorted by code,
    followed by a count line. *)
val pp_report : t list Fmt.t

(** One-line machine-readable summary:
    [lint-summary errors=E warnings=W SAxxx=n ...]. *)
val pp_summary : t list Fmt.t

(** The registry table, one line per code: code, severity, layer,
    description ([scopeopt lint --list-codes]). *)
val pp_catalog : unit Fmt.t
