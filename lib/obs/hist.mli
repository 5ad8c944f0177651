(** Log-bucketed histograms.  A histogram carries no name: the
    {!Metrics} registry that owns it names and labels it.

    Observations are bucketed by their binary exponent into power-of-two
    buckets spanning [2{^-41}..2{^39}] (seconds, rows, anything
    positive); zero and negatives fall into the lowest bucket, and
    non-finite observations are clamped to zero rather than poisoning
    the tracked extremes.  Recording is lock-free and domain-safe: one
    atomic bucket increment plus CAS-maintained running sum, min and
    max. *)

type t

type summary = {
  count : int;
  sum : float;
  p50 : float;
      (** upper bound of the median bucket, clamped into [[min, max]]:
          0 observations report 0, a single observation reports itself *)
  p90 : float;
  min : float;  (** exact smallest observation; 0 when empty *)
  max : float;  (** exact largest observation; 0 when empty *)
  buckets : (float * int) list;
      (** nonzero buckets as [(upper_bound, count)], ascending *)
}

(** An empty histogram. *)
val make : unit -> t

(** Record one observation.  Domain-safe. *)
val observe : t -> float -> unit

val summarize : t -> summary
