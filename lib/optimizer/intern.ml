open Sphys

(* Integer identities for the requirements of one optimizer run.

   Every [optimize_group] call looks its winner up by (phase, extended
   requirement).  The requirement part is two integers: the id of the
   conventional [Reqprops.t] and the id of the enforcement map.  Both are
   assigned here, once per distinct value, by a table that belongs to one
   [Optimizer.t] and is dropped with it.

   Enforcement maps are hash-consed cons lists sorted by group id: a cell
   is identified by (group id, requirement id, id of the rest of the map),
   three integers, so building a cell costs one small hash lookup and two
   maps are structurally equal exactly when their ids are equal.  Nothing
   ever hashes or compares a whole map. *)

(* Two ids as one int: [hi] above the [pair_bits] low bits holding [lo].
   Ids stay far below [2^pair_bits]: a run assigns one per distinct
   requirement, and group ids count memo groups. *)
let pair_bits = 28

let pair hi lo =
  if lo lsr pair_bits <> 0 then invalid_arg "Intern.pair: id overflow";
  (hi lsl pair_bits) lor lo

(* Int-keyed tables.  The high bits of a [pair] matter, so the hash mixes
   every bit in. *)
module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type map = { id : int; bindings : (int * Reqprops.t) list; tail : tail }
and tail = Nil | Cons of { gid : int; rid : int; rest : map }

module Cells = Hashtbl.Make (struct
  type t = int * int * int (* group id, requirement id, rest's map id *)

  let equal ((g, r, m) : t) (g', r', m') = g = g' && r = r' && m = m'
  let hash = Hashtbl.hash
end)

type t = {
  reqs : (Reqprops.t, int) Hashtbl.t;
  cells : map Cells.t;
  mutable hits : int;  (* lookups that found an id already assigned *)
  mutable misses : int;  (* lookups that assigned a new one *)
}

(* [Reqprops.none], the requirement of most inputs, is id 0 in every
   table and is recognized without hashing. *)
let create () =
  let reqs = Hashtbl.create 64 in
  Hashtbl.add reqs Reqprops.none 0;
  { reqs; cells = Cells.create 64; hits = 0; misses = 0 }

let hits t = t.hits
let misses t = t.misses

let empty = { id = 0; bindings = []; tail = Nil }
let is_empty m = m.id = 0

let req t (r : Reqprops.t) =
  if r == Reqprops.none then begin
    t.hits <- t.hits + 1;
    0
  end
  else
    match Hashtbl.find_opt t.reqs r with
    | Some i ->
        t.hits <- t.hits + 1;
        i
    | None ->
        t.misses <- t.misses + 1;
        let i = Hashtbl.length t.reqs in
        Hashtbl.add t.reqs r i;
        i

(* [gid ↦ r] (interned as [rid]) in front of [rest], whose groups are not
   smaller. *)
let cons t gid rid r rest =
  let key = (gid, rid, rest.id) in
  match Cells.find_opt t.cells key with
  | Some m ->
      t.hits <- t.hits + 1;
      m
  | None ->
      t.misses <- t.misses + 1;
      let m =
        {
          id = Cells.length t.cells + 1;
          bindings = (gid, r) :: rest.bindings;
          tail = Cons { gid; rid; rest };
        }
      in
      Cells.add t.cells key m;
      m

let of_list t bindings =
  List.fold_right
    (fun (gid, r) rest -> cons t gid (req t r) r rest)
    (List.sort_uniq Stdlib.compare bindings)
    empty

(* The bindings whose group passes [keep]: the cells after the last
   dropped binding are shared, and nothing is re-interned. *)
let rec filter t keep m =
  match m.tail with
  | Nil -> m
  | Cons { gid; rid; rest } ->
      let rest' = filter t keep rest in
      if not (keep gid) then rest'
      else if rest' == rest then m
      else cons t gid rid (snd (List.hd m.bindings)) rest'

let find m gid = List.assoc_opt gid m.bindings
