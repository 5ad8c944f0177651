(** Extended required properties (Section VII): the conventional
    requirement plus [PropForSharedGrps] — property sets to be enforced at
    shared groups below, keyed by group id.

    Both parts are interned in the optimizer run's {!Intern} table:
    [rid] is the id of [req], and [enforce] is a hash-consed map, so two
    extended requirements are equal exactly when their [rid]s and
    [enforce.id]s are. *)

type t = { req : Sphys.Reqprops.t; rid : int; enforce : Intern.map }

(** Intern the requirement and pair it with an enforcement map of the
    same table. *)
val make : Intern.t -> Sphys.Reqprops.t -> Intern.map -> t

(** No enforcement map. *)
val plain : Intern.t -> Sphys.Reqprops.t -> t

(** The property set enforced at a group, if any. *)
val enforcement : t -> int -> Sphys.Reqprops.t option
