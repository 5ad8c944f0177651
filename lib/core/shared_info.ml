(* Algorithm 3: PropagateSharedGrpInfoAndFindLCA.

   For each group reachable from the root, the shared groups at or below
   it; for each shared group, the LCA (Definition 2) of its consumers.
   The LCA is *not* necessarily the lowest common ancestor: when a
   consumer can reach the root bypassing the lowest common ancestor
   (Figure 3(c)), the LCA sits higher up.

   Deviation from the paper.  Algorithm 3 propagates consumer-found flags
   bottom-up and identifies the LCA incrementally: SetLCA overwrites
   whenever a merge of flags completes the consumer set.  A brute-force
   cross-check over random DAGs (test_lca.ml) shows that rule to be
   traversal-order-sensitive: a diamond *above* the true LCA can complete
   a merge and steal the LCA, and whether a later merge repairs it
   depends on the order in which the DFS reaches the sub-DAGs.  The only
   other product of the propagation, the shared-below sets that guide
   enforcement propagation and the VIII-A independence test, is plain
   reachability.  So each fact is computed once, exactly, and the
   incremental rule not at all:

     below(g) = ({g} if g is shared) ∪ ⋃_{c ∈ children(g)} below(c)

   in one children-first pass, and

     LCA(S) = the lowest common postdominator of S's consumers,

   where g postdominates c iff every c-to-root path passes through g --
   precisely Definition 2.  Postdominator sets satisfy
     PD(root) = {root},  PD(x) = {x} ∪ ⋂_{p ∈ parents(x)} PD(p)
   and are computed with one bitset sweep from the root down. *)

type t = {
  (* reachable group -> shared groups at or below it, ascending *)
  below : (int, int list) Hashtbl.t;
  (* shared group -> its consumers' LCA *)
  lca : (int, int) Hashtbl.t;
  (* shared group -> its distinct consumer groups *)
  consumers_of : (int, int list) Hashtbl.t;
  (* group -> the shared groups it is the LCA of, ascending; the inverse
     of [lca], built once by [compute] *)
  lca_of_group : (int, int list) Hashtbl.t;
  (* group -> id of its set of shared groups below; groups with equal
     sets share the id *)
  below_class : (int, int) Hashtbl.t;
}

let lca_of_shared t shared = Hashtbl.find_opt t.lca shared

(* Shared groups this group is the LCA of. *)
let lca_groups t gid =
  Option.value ~default:[] (Hashtbl.find_opt t.lca_of_group gid)

(* Shared groups at or below [gid] (including [gid] itself if shared). *)
let shared_below t gid = Option.value ~default:[] (Hashtbl.find_opt t.below gid)

let below_class t gid = Hashtbl.find_opt t.below_class gid

let share_free t gid = Hashtbl.find_opt t.below gid = Some []

let consumers t shared =
  Option.value ~default:[] (Hashtbl.find_opt t.consumers_of shared)

(* --- exact LCA via postdominators ------------------------------------- *)

module Bitset = struct
  let words n = (n + 62) / 63
  let make n ~full = Array.make (words n) (if full then -1 else 0)

  (* an empty [src] (an unreachable group's placeholder) leaves [dst] *)
  let inter_into dst src =
    Array.iteri (fun w x -> dst.(w) <- dst.(w) land x) src

  let add s i = s.(i / 63) <- s.(i / 63) lor (1 lsl (i mod 63))
  let mem s i = s.(i / 63) land (1 lsl (i mod 63)) <> 0
end

(* parents-first order of the reachable groups (root first). *)
let top_down_order memo =
  let order = ref [] in
  let seen = Hashtbl.create 64 in
  let rec visit gid =
    if not (Hashtbl.mem seen gid) then begin
      Hashtbl.replace seen gid ();
      List.iter visit (Smemo.Memo.group_children (Smemo.Memo.group memo gid));
      order := gid :: !order
    end
  in
  visit memo.Smemo.Memo.root;
  !order

(* PD(x): the groups contained in every x-to-root path; unreachable
   groups get an empty placeholder. *)
let postdominators memo order =
  let n = Smemo.Memo.size memo in
  let parents = Smemo.Memo.parents memo in
  let pd = Array.make n [||] in
  List.iter
    (fun gid ->
      let set = Bitset.make n ~full:(gid <> memo.Smemo.Memo.root) in
      List.iter (fun p -> Bitset.inter_into set pd.(p)) parents.(gid);
      Bitset.add set gid;
      pd.(gid) <- set)
    order;
  pd

(* lowest element of the common-postdominator chain: the candidate whose
   own postdominator set contains every other candidate.  Consumers are
   reachable (they are parents of a reachable group). *)
let lowest_common_postdominator pd = function
  | [] -> None
  | first :: rest ->
      let common = Array.copy pd.(first) in
      List.iter (fun c -> Bitset.inter_into common pd.(c)) rest;
      let candidates =
        List.filter (Bitset.mem common) (List.init (Array.length pd) Fun.id)
      in
      List.find_opt
        (fun g -> List.for_all (Bitset.mem pd.(g)) candidates)
        candidates

let compute (memo : Smemo.Memo.t) : t =
  let t =
    {
      below = Hashtbl.create 64;
      lca = Hashtbl.create 8;
      consumers_of = Hashtbl.create 8;
      lca_of_group = Hashtbl.create 8;
      below_class = Hashtbl.create 64;
    }
  in
  let order = top_down_order memo in
  let parents = Smemo.Memo.parents memo in
  (* children first: every child's set is final before its parents read
     it *)
  List.iter
    (fun gid ->
      let g = Smemo.Memo.group memo gid in
      let from_children =
        List.concat_map (shared_below t) (Smemo.Memo.group_children g)
      in
      let set =
        if g.Smemo.Memo.shared then begin
          Hashtbl.replace t.consumers_of gid parents.(gid);
          gid :: from_children
        end
        else from_children
      in
      Hashtbl.replace t.below gid (List.sort_uniq Int.compare set))
    (List.rev order);
  let pd = postdominators memo order in
  Hashtbl.iter
    (fun shared consumers ->
      Option.iter
        (fun l ->
          Hashtbl.replace t.lca shared l;
          Hashtbl.replace t.lca_of_group l (shared :: lca_groups t l))
        (lowest_common_postdominator pd consumers))
    t.consumers_of;
  Hashtbl.filter_map_inplace
    (fun _ shared -> Some (List.sort Int.compare shared))
    t.lca_of_group;
  let classes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun gid set ->
      let cls =
        match Hashtbl.find_opt classes set with
        | Some c -> c
        | None ->
            let c = Hashtbl.length classes in
            Hashtbl.add classes set c;
            c
      in
      Hashtbl.replace t.below_class gid cls)
    t.below;
  t
