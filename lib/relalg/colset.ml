(* A set of column names.  The representation is a sorted, duplicate-free
   string list so that structural equality coincides with set equality --
   the optimizer uses column sets as hash-table and winner keys. *)

type t = string list

let empty : t = []
let is_empty s = s = []
let singleton c : t = [ c ]

let of_list cs : t = List.sort_uniq String.compare cs
let to_list (s : t) = s

let mem c (s : t) = List.mem c s
let cardinal (s : t) = List.length s

let union a b : t = of_list (a @ b)

let inter (a : t) (b : t) : t = List.filter (fun c -> mem c b) a

let diff (a : t) (b : t) : t = List.filter (fun c -> not (mem c b)) a

let subset (a : t) (b : t) = List.for_all (fun c -> mem c b) a

let equal (a : t) (b : t) = a = b

(* All non-empty subsets, useful for expanding partitioning ranges. *)
let nonempty_subsets (s : t) : t list =
  List.map of_list (Sutil.Combi.nonempty_subsets s)

let pp ppf (s : t) = Fmt.pf ppf "{%s}" (String.concat "," s)

let to_string s = Fmt.str "%a" pp s
