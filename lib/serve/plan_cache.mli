(** Fingerprint-keyed plan cache for the serve loop.

    Keys are {!Cse.Fingerprint.hash_string} over the normalized script
    text with the catalog version folded in, so bumping the statistics
    epoch makes every prior key unreachable — invalidation is free and
    {!purge_stale} only reclaims memory.  The cache counts nothing
    itself: the engine records hits, misses and purges in its metrics
    registry. *)

type entry = {
  fingerprint : int;
  normalized : string;  (** canonical text behind the key *)
  outputs : int;  (** OUTPUT statements in the script *)
  catalog_version : int;  (** statistics epoch the plan was built under *)
  report : Cse.Pipeline.report;
      (** the original optimization, plans included — a hit re-executes
          [report.cse_plan] and skips parse/bind/optimize *)
}

type t

val create : unit -> t

(** The cache key for a normalized script under a catalog version. *)
val key : catalog_version:int -> string -> int

val find : t -> int -> entry option

val add : t -> entry -> unit
val size : t -> int

(** Drop entries optimized under a different statistics epoch; returns
    the number removed. *)
val purge_stale : t -> current_version:int -> int
