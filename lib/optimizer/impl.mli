(** Implementation rules and DetChildProp (Algorithm 2): the physical
    alternatives of a logical group expression under a requirement,
    together with the properties each alternative requires of its children.
    Alternatives whose requirement cannot be pushed down are not generated;
    the enforcer machinery covers those shapes. *)

type alt = { op : Sphys.Physop.t; child_reqs : Sphys.Reqprops.t list }

(** All implementation alternatives of one expression under the
    requirement. *)
val alternatives : Smemo.Memo.mexpr -> Sphys.Reqprops.t -> alt list
