(** A typed registry of named counters, gauges and histograms with
    label sets.

    A registry is an explicit value (one per serve engine, one per
    executor) rather than a process-global table, so long-running
    engines and tests snapshot their own metrics in isolation.  A serve
    engine records into its executor's registry, so one snapshot holds
    both layers' series.  After the one locked get-or-create per
    [(name, labels)] series, recording is a plain [Atomic] operation
    (or a {!Hist} observation): lock-free and domain-safe.  Hot paths
    should resolve the instrument handle once and hold it.

    Labels are normalized (key-sorted) at registration, so label order
    never splits a series.  Keep label values in small closed sets
    (tenant, phase, kernel, stage, path) — never per-session or
    per-query ids, which would grow the registry without bound. *)

type labels = (string * string) list

type value =
  | Count of int  (** counter reading *)
  | Value of float  (** gauge reading *)
  | Dist of Hist.summary  (** histogram summary *)

type row = { name : string; labels : labels; value : value }

type t

val create : unit -> t

(** Find or register; raises [Invalid_argument] when the series exists
    with a different instrument kind. *)
val histogram : t -> ?labels:labels -> string -> Hist.t

(** {1 One-shot recording} (resolves the handle each call) *)

val bump : t -> ?labels:labels -> ?by:int -> string -> unit

val set : t -> ?labels:labels -> string -> float -> unit

val observe : t -> ?labels:labels -> string -> float -> unit

(** Current reading of a counter; 0 when the series does not exist (or
    is not a counter). *)
val get : t -> ?labels:labels -> string -> int

(** {1 Snapshots and exposition} *)

(** Every registered series, sorted by name then labels. *)
val snapshot : t -> row list

(** Prometheus-style text: [# TYPE] declarations, one sample per
    counter/gauge, summary-style quantile + [_count] + [_sum] samples
    per histogram.  Metric and label names are sanitized to
    [[a-zA-Z0-9_:]]. *)
val to_prom : row list -> string

(** JSON array of row objects (dependency-free, via {!Json}): [name],
    [labels] and [kind], then [value] for counters and gauges, or
    [count], [sum], [p50], [p90], [min], [max] and [buckets] (the
    nonzero buckets as [[upper_bound, count]] pairs, ascending) for
    histograms. *)
val to_json : row list -> Json.t
