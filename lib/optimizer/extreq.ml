open Sphys

(* Extended required properties (Section VII): the conventional requirement
   plus [PropForSharedGrps] -- the property sets to be enforced at shared
   groups encountered below, keyed by group id.  Both parts carry their
   interned ids ([Intern]), so the winner key of an extended requirement
   is two integers and never needs hashing or normalizing. *)

type t = { req : Reqprops.t; rid : int; enforce : Intern.map }

let make intern req enforce = { req; rid = Intern.req intern req; enforce }
let plain intern req = make intern req Intern.empty
let enforcement t gid = Intern.find t.enforce gid
