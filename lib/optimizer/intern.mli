(** Integer identities for the requirements of one optimizer run.

    Each {!Optimizer.t} owns one table and drops it with the run.  The
    table interns conventional requirements ({!Sphys.Reqprops.t}) and
    hash-conses enforcement maps (shared group ↦ pinned properties), so
    an extended requirement's winner key is two small integers.  Ids are
    meaningful only within the table that assigned them. *)

type t

(** An enforcement map: bindings sorted by group id (then properties),
    duplicates removed.  Maps of one table are equal exactly when their
    ids are; the empty map has id 0 in every table. *)
type map = private {
  id : int;
  bindings : (int * Sphys.Reqprops.t) list;
  tail : tail;
}

and tail

val create : unit -> t

(** Lookups so far that found an id already assigned ([intern.hits]) and
    that assigned a new one ([intern.misses]). *)
val hits : t -> int

val misses : t -> int

(** [pair hi lo]: two ids packed into one int; [lo] must be below
    [2^28]. *)
val pair : int -> int -> int

(** Int-keyed hash tables, for ids and {!pair}s. *)
module Id_tbl : Hashtbl.S with type key = int

(** The id of a requirement, assigned on first sight. *)
val req : t -> Sphys.Reqprops.t -> int

val empty : map
val is_empty : map -> bool

(** The map holding these bindings, in any order. *)
val of_list : t -> (int * Sphys.Reqprops.t) list -> map

(** The bindings whose group passes the predicate; the map itself when
    every binding does. *)
val filter : t -> (int -> bool) -> map -> map

(** The property set a map pins at a group, if any. *)
val find : map -> int -> Sphys.Reqprops.t option
