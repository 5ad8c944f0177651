open Sphys

(* Re-optimization round search (Algorithm 4, line 7, plus the Section
   VIII refinements).

   A *round* is one complete assignment of a property set to every shared
   group handled at this LCA.  [search] hands rounds to a probe one at a
   time.  Within an independence class it walks the full cartesian
   product -- lazily, by mixed-radix decoding, so a dependent class of
   many groups (whose product can exceed 10^18) costs nothing until
   rounds are actually probed and the optimization budget cuts the search
   off.  The first (highest-ranked) group varies fastest.

   Across independent classes (VIII-A) the search is sequential: once a
   class is exhausted its best assignment is frozen and the next class is
   explored around it.  Later classes skip their all-initial combination
   -- it was already evaluated while the previous classes varied. *)

type assignment = (int * Reqprops.t) list

type classes = (int * Reqprops.t list) list list

type cls = { members : (int * Reqprops.t array) array; total : int }

(* Saturating product, so 14^17-sized spaces do not overflow. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let mk_cls (members : (int * Reqprops.t list) list) : cls =
  let members =
    Array.of_list (List.map (fun (g, ps) -> (g, Array.of_list ps)) members)
  in
  let total =
    Array.fold_left (fun acc (_, ps) -> sat_mul acc (Array.length ps)) 1 members
  in
  { members; total }

(* Decode combination [i] of a class: member 0 varies fastest. *)
let combo_of_index (c : cls) i : assignment =
  let rec go j i acc =
    if j >= Array.length c.members then List.rev acc
    else
      let g, ps = c.members.(j) in
      let k = i mod Array.length ps in
      go (j + 1) (i / Array.length ps) ((g, ps.(k)) :: acc)
  in
  go 0 i []

let initial_of (c : cls) : assignment =
  Array.to_list (Array.map (fun (g, ps) -> (g, ps.(0))) c.members)

(* Bounds carry a hair of relative slack so a round in true near-tie
   territory is never aborted -- ties must keep resolving exactly as in
   the exhaustive run. *)
let slack b = if b = infinity then infinity else b *. (1.0 +. 1e-6)

let search (classes : classes) ~incumbent ~exhausted ~probe =
  let best = ref incumbent in
  (* [fixed]: the frozen bests of the finished classes; [first]: the
     class's first combination not evaluated yet *)
  let rec walk fixed first = function
    | [] -> ()
    | c :: later ->
        let rest = List.concat_map initial_of later in
        let class_cost = ref infinity and class_combo = ref (initial_of c) in
        let rec go i =
          if i >= c.total then walk (fixed @ !class_combo) 1 later
          else if not (exhausted ()) then begin
            let combo = combo_of_index c i in
            (* earlier classes still steer (their best is frozen): bound
               them only by their own best so the frozen choice matches
               the exhaustive run; the last class's best is never consumed
               and can be bounded by the global incumbent *)
            let bound = slack (if later = [] then !best else !class_cost) in
            let cost = probe (fixed @ combo @ rest) ~bound in
            if cost < !best then best := cost;
            if i = first || cost < !class_cost then begin
              class_cost := cost;
              class_combo := combo
            end;
            go (i + 1)
          end
        in
        go first
  in
  classes
  |> List.filter (fun c -> c <> [] && List.for_all (fun (_, ps) -> ps <> []) c)
  |> List.map mk_cls
  |> walk [] 0

let class_sizes (classes : classes) =
  List.map
    (fun cls ->
      List.fold_left (fun acc (_, ps) -> sat_mul acc (max 1 (List.length ps))) 1 cls)
    classes

(* Round count without the VIII-A decomposition: the full product over
   every shared group (saturating). *)
let naive_total (classes : classes) =
  List.fold_left sat_mul 1 (class_sizes classes)

(* Round count with the decomposition: the first class contributes its full
   product, later classes their product minus the already-evaluated
   all-initial combination. *)
let sequential_total (classes : classes) =
  match class_sizes classes with
  | [] -> 0
  | first :: rest -> first + List.fold_left (fun acc n -> acc + n - 1) 0 rest
