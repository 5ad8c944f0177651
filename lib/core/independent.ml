(* Section VIII-A: independent shared groups.

   Shared groups with the same LCA [l] are independent when their
   consuming-path sub-DAGs only meet at [l] (and above).  Following the
   paper: two shared groups are dependent when some input of [l] has both
   in its below-list; classes are the connected components of that
   relation.  Independent classes can be re-optimized sequentially instead
   of combinatorially. *)

(* Partition [shared] (all having LCA [l]) into independent classes, in
   the order of [shared]: members keep their order, classes are ordered
   by their first member. *)
let classes (si : Shared_info.t) (memo : Smemo.Memo.t) ~(l : int)
    (shared : int list) : int list list =
  let lg = Smemo.Memo.group memo l in
  let inputs = Smemo.Memo.group_children lg in
  (* below-lists per input, restricted to the groups we are assigning *)
  let below_per_input =
    List.map
      (fun input ->
        List.filter (fun s -> List.mem s shared) (Shared_info.shared_below si input))
      inputs
  in
  (* also: if l itself consumes a shared group directly it appears in the
     input list as the group itself *)
  let union_find = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt union_find x with
    | Some p when p <> x ->
        let r = find p in
        Hashtbl.replace union_find x r;
        r
    | _ -> x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace union_find ra rb
  in
  List.iter (fun s -> Hashtbl.replace union_find s s) shared;
  List.iter
    (fun below ->
      match below with
      | [] -> ()
      | first :: rest -> List.iter (union first) rest)
    below_per_input;
  let rec group = function
    | [] -> []
    | s :: rest ->
        let r = find s in
        let same, other = List.partition (fun x -> find x = r) rest in
        (s :: same) :: group other
  in
  group shared
