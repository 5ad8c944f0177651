(* Small combinatorics used by the optimizer: subset enumeration over
   short lists (column sets are tiny in practice) and list slicing. *)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = subsets rest in
      let with_x = List.map (fun s -> x :: s) without in
      with_x @ without

let nonempty_subsets xs = List.filter (fun s -> s <> []) (subsets xs)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | l when n <= 0 -> l
  | _ :: rest -> drop (n - 1) rest
