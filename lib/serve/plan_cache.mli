(** Plan cache for the serve loop.

    Entries are keyed on the normalized script text and the catalog
    version, so a lookup returns an entry only when both are equal to the
    request's: a hash collision cannot serve one script's plan to
    another, and bumping the statistics epoch makes every prior entry
    unreachable — invalidation is free and {!purge_stale} only reclaims
    memory.  The cache counts nothing itself: the engine records hits,
    misses and purges in its metrics registry. *)

type entry = {
  fingerprint : int;  (** {!key} of the entry: a label for reports *)
  normalized : string;  (** canonical text, half of the lookup key *)
  outputs : int;  (** OUTPUT statements in the script *)
  catalog_version : int;  (** statistics epoch the plan was built under *)
  report : Cse.Pipeline.report;
      (** the original optimization, plans included — a hit re-executes
          [report.cse_plan] and skips parse/bind/optimize *)
}

type t

val create : unit -> t

(** The fingerprint of a normalized script under a catalog version:
    {!Cse.Fingerprint.hash_string} of the text with the version folded
    in.  Reports show it; lookups do not use it. *)
val key : catalog_version:int -> string -> int

(** The entry for exactly this normalized text under this catalog
    version. *)
val find : t -> catalog_version:int -> string -> entry option

val add : t -> entry -> unit
val size : t -> int

(** Drop entries optimized under a different statistics epoch; returns
    the number removed. *)
val purge_stale : t -> current_version:int -> int
