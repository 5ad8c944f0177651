open Sphys

(* Section V: recording the physical properties requested at shared groups
   during phase 1.

   A recorded partitioning *range* [∅, C] is expanded into one entry per
   concrete subset (the paper's example expands [∅,{A,B,C}] into its seven
   non-empty subsets), bounded for wide column sets.  Each entry also
   carries a frequency counter (Section VIII-C): the number of times the
   entry described the best local plan found in phase 1. *)

type entry = { props : Reqprops.t; mutable freq : int }

type t = {
  config : Config.t;
  (* shared group id -> recorded entries, in first-recorded order *)
  table : (int, entry list ref) Hashtbl.t;
}

let create config = { table = Hashtbl.create 8; config }

let entries t gid =
  match Hashtbl.find_opt t.table gid with Some l -> !l | None -> []

let count t gid = List.length (entries t gid)

(* A range requirement expands into the enforcer's candidate sets, so
   that every recorded entry is actually plannable. *)
let expand (req : Reqprops.t) : Reqprops.t list =
  match req.Reqprops.part with
  | Reqprops.Hash_subset c ->
      List.map
        (fun s -> Reqprops.make (Reqprops.Hash_exact s) req.Reqprops.sort)
        (Sopt.Enforcers.candidate_sets c)
  | Reqprops.Any | Reqprops.Serial_req | Reqprops.Hash_exact _ -> [ req ]

(* Record one phase-1 request at a shared group. *)
let record t gid (req : Reqprops.t) =
  let slot =
    match Hashtbl.find_opt t.table gid with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.table gid l;
        l
  in
  List.iter
    (fun props ->
      if not (List.exists (fun e -> Reqprops.equal e.props props) !slot) then
        slot := !slot @ [ { props; freq = 0 } ])
    (expand req)

(* Section VIII-C: credit the entries matched by the properties a phase-1
   best plan actually delivered. *)
let note_best t gid (plan : Plan.t option) =
  match (plan, Hashtbl.find_opt t.table gid) with
  | Some p, Some slot ->
      let delivered = p.Plan.props in
      List.iter
        (fun e ->
          let part_match =
            match (e.props.Reqprops.part, delivered.Props.part) with
            | Reqprops.Hash_exact s, Partition.Hashed d -> Relalg.Colset.equal s d
            | Reqprops.Any, Partition.Roundrobin -> true
            | Reqprops.Serial_req, Partition.Serial -> true
            | _ -> false
          in
          if
            part_match
            && Sortorder.prefix e.props.Reqprops.sort delivered.Props.sort
          then e.freq <- e.freq + 1)
        !slot
  | _ -> ()

(* Property sets of a shared group for round generation, best-ranked first
   when VIII-C is enabled. *)
let ranked_properties t gid : Reqprops.t list =
  let es = entries t gid in
  let es =
    if t.config.Config.use_property_ranking then
      List.stable_sort (fun a b -> Int.compare b.freq a.freq) es
    else es
  in
  List.map (fun e -> e.props) es

(* Round-pruning layer 1: dominance between candidate property sets.

   [dominates ~by:q p] holds when q pins the same concrete partitioning as
   p together with a strictly longer sort, p's sort being non-empty.  Then
   pinning q can never lose to pinning p: the cost model prices a sort by
   row count alone (key-independent), so producing q's order at the shared
   group costs the same as producing p's, while by prefix closure every
   consumer requirement satisfied under p's delivery is satisfied under
   q's — any per-consumer compensation needed on top of q is needed, no
   cheaper, on top of p.  [Any] never participates on either side: an
   [Any] pin leaves the delivered partitioning unconstrained, so two
   such candidates are not interchangeable deliveries. *)
let dominates ~(by : Reqprops.t) (p : Reqprops.t) =
  let part_eq =
    match (p.Reqprops.part, by.Reqprops.part) with
    | Reqprops.Hash_exact a, Reqprops.Hash_exact b -> Relalg.Colset.equal a b
    | Reqprops.Serial_req, Reqprops.Serial_req -> true
    | _ -> false
  in
  part_eq
  && (not (Sortorder.is_empty p.Reqprops.sort))
  && Sortorder.prefix p.Reqprops.sort by.Reqprops.sort
  && not (Sortorder.equal p.Reqprops.sort by.Reqprops.sort)

(* Candidates for round generation after dominance filtering: the kept
   property sets (ranked order preserved) and each dropped set paired with
   a kept dominator.  Dominance is a strict partial order (sort length
   strictly increases along a chain), so every dropped candidate has a
   maximal — hence kept — transitive dominator. *)
let candidates t gid : Reqprops.t list * (Reqprops.t * Reqprops.t) list =
  let props = ranked_properties t gid in
  if not t.config.Config.prune then (props, [])
  else
    let kept, dropped =
      List.partition
        (fun p -> not (List.exists (fun q -> dominates ~by:q p) props))
        props
    in
    let pairs =
      List.map
        (fun p -> (p, List.find (fun q -> dominates ~by:q p) kept))
        dropped
    in
    (kept, pairs)
