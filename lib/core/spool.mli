(** Algorithm 1: IdentifyCommonSubexpressions.

    Merges structurally equal subexpressions (found via fingerprint
    collisions) and puts a SPOOL group on top of every group with more than
    one consumer, re-pointing the consumers to it and marking it shared. *)

type shared = {
  spool : int;  (** the spool group (the one marked shared) *)
  under : int;  (** the group being materialized *)
  initial_consumers : int;  (** distinct parents at identification time *)
}

(** Run the identification on a freshly built memo; returns the shared
    groups found. Idempotent. *)
val identify : Smemo.Memo.t -> shared list
