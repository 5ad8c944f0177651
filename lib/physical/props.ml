open Relalg

(* Delivered physical properties of a plan: how its output rows are
   partitioned across machines and how each partition is sorted. *)

type t = { part : Partition.t; sort : Sortorder.t }

let make part sort = { part; sort }

let equal a b = Partition.equal a.part b.part && Sortorder.equal a.sort b.sort

(* Keep only properties expressible over [cols]. *)
let restrict cols t =
  let keep c = Colset.mem c cols in
  {
    part =
      (match t.part with
      | Partition.Hashed s when not (Colset.subset s cols) ->
          Partition.Roundrobin
      | p -> p);
    sort = Sortorder.retained_prefix keep t.sort;
  }

let pp ppf t =
  Fmt.pf ppf "[%a; sort %a]" Partition.pp t.part Sortorder.pp t.sort

let to_string t = Fmt.str "%a" pp t
