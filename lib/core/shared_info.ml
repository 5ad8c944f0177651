(* Algorithm 3: PropagateSharedGrpInfoAndFindLCA.

   Bottom-up propagation of shared-group information through the memo's
   group DAG, identifying for each shared group the least common ancestor
   (LCA, Definition 2) of its consumers.  The LCA is *not* necessarily the
   lowest common ancestor: when a consumer can reach the root bypassing the
   lowest common ancestor (Figure 3(c)), the LCA sits higher up.

   Deviation from the paper.  Algorithm 3 identifies the LCA incrementally:
   SetLCA overwrites whenever a merge of consumer-found flags completes the
   consumer set.  A brute-force cross-check over random DAGs (test_lca.ml)
   shows that rule to be traversal-order-sensitive: a diamond *above* the
   true LCA can complete a merge and steal the LCA, and whether a later
   merge repairs it depends on the order in which the DFS reaches the
   sub-DAGs.  We therefore keep the paper's propagation (it also yields the
   shared-below sets that guide enforcement propagation and the VIII-A
   independence test) but compute the final LCA table exactly:

     LCA(S) = the lowest common postdominator of S's consumers,

   where g postdominates c iff every c-to-root path passes through g --
   precisely Definition 2.  Postdominator sets satisfy
     PD(root) = {root},  PD(x) = {x} ∪ ⋂_{p ∈ parents(x)} PD(p)
   and are computed with one bitset sweep from the root down. *)

type shrd = {
  shared : int; (* the shared (spool) group *)
  consumers : (int * bool ref) list; (* consumer group -> found below here *)
}

type t = {
  (* group id -> info about the shared groups below it *)
  info : (int, shrd list) Hashtbl.t;
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

let info t gid = Option.value ~default:[] (Hashtbl.find_opt t.info gid)

let lca_of_shared t shared = Hashtbl.find_opt t.lca shared

(* Shared groups this group is the LCA of. *)
let lca_groups t gid =
  Option.value ~default:[] (Hashtbl.find_opt t.lca_of_group gid)

(* Shared groups at or below [gid] (including [gid] itself if shared). *)
let shared_below t gid = List.map (fun s -> s.shared) (info t gid)

let consumers t shared =
  Option.value ~default:[] (Hashtbl.find_opt t.consumers_of shared)

let all_found s = List.for_all (fun (_, f) -> !f) s.consumers

let copy_shrd s =
  { s with consumers = List.map (fun (c, f) -> (c, ref !f)) s.consumers }

(* --- exact LCA via postdominators ------------------------------------- *)

module Bitset = struct
  let words n = (n + 62) / 63
  let full n = Array.make (words n) (-1)
  let singleton n i =
    let s = Array.make (words n) 0 in
    s.(i / 63) <- 1 lsl (i mod 63);
    s

  let inter_into dst src =
    Array.iteri (fun w x -> dst.(w) <- dst.(w) land x) src

  let add s i = s.(i / 63) <- s.(i / 63) lor (1 lsl (i mod 63))
  let mem s i = s.(i / 63) land (1 lsl (i mod 63)) <> 0
  let copy = Array.copy
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

(* PD(x): the groups contained in every x-to-root path. *)
let postdominators memo =
  let n = Smemo.Memo.size memo in
  let parents = Smemo.Memo.parents memo in
  let pd = Array.make n None in
  List.iter
    (fun gid ->
      let set =
        if gid = memo.Smemo.Memo.root then Bitset.singleton n gid
        else begin
          let acc = Bitset.full n in
          List.iter
            (fun p ->
              match pd.(p) with
              | Some s -> Bitset.inter_into acc s
              | None -> () (* unreachable parent *))
            parents.(gid);
          Bitset.add acc gid;
          acc
        end
      in
      pd.(gid) <- Some set)
    (top_down_order memo);
  pd

(* lowest element of the common-postdominator chain: the candidate whose
   own postdominator set contains every other candidate. *)
let lowest_common_postdominator memo pd consumers =
  match consumers with
  | [] -> None
  | first :: rest ->
      let n = Smemo.Memo.size memo in
      let common =
        match pd.(first) with
        | Some s -> Bitset.copy s
        | None -> Bitset.full n
      in
      List.iter
        (fun c ->
          match pd.(c) with
          | Some s -> Bitset.inter_into common s
          | None -> ())
        rest;
      let candidates = ref [] in
      for g = 0 to n - 1 do
        if Bitset.mem common g then candidates := g :: !candidates
      done;
      List.find_opt
        (fun g ->
          match pd.(g) with
          | Some s -> List.for_all (fun other -> Bitset.mem s other) !candidates
          | None -> false)
        !candidates

let compute (memo : Smemo.Memo.t) : t =
  let t =
    {
      info = Hashtbl.create 64;
      lca = Hashtbl.create 8;
      consumers_of = Hashtbl.create 8;
      lca_of_group = Hashtbl.create 8;
      below_class = Hashtbl.create 64;
    }
  in
  let parents = Smemo.Memo.parents memo in
  let visited = Hashtbl.create 64 in
  let rec propagate gid =
    if not (Hashtbl.mem visited gid) then begin
      Hashtbl.replace visited gid ();
      let g = Smemo.Memo.group memo gid in
      let my = ref [] in
      if g.Smemo.Memo.shared then begin
        let cons = parents.(gid) in
        Hashtbl.replace t.consumers_of gid cons;
        my := [ { shared = gid; consumers = List.map (fun c -> (c, ref false)) cons } ]
      end;
      List.iter
        (fun input ->
          propagate input;
          List.iter
            (fun shrd_i ->
              match
                List.find_opt (fun s -> s.shared = shrd_i.shared) !my
              with
              | Some shrd_g ->
                  let complete_before = all_found shrd_g in
                  let incoming_complete = all_found shrd_i in
                  (* propagate consumer-found flags from the input *)
                  List.iter
                    (fun (c, f) ->
                      if !f then
                        match List.assoc_opt c shrd_g.consumers with
                        | Some fg -> fg := true
                        | None -> ())
                    shrd_i.consumers;
                  (* this group consumes the shared input directly *)
                  if input = shrd_i.shared then begin
                    match List.assoc_opt gid shrd_g.consumers with
                    | Some fg -> fg := true
                    | None -> ()
                  end;
                  (* SetLCA (Algorithm 3, line 22).  Note: the paper's
                     unconditional overwrite is order-sensitive (see the
                     module comment); this incremental value is recorded
                     for fidelity but the final LCA table is recomputed
                     exactly from postdominators afterwards. *)
                  ignore complete_before;
                  ignore incoming_complete;
                  if all_found shrd_g then
                    Hashtbl.replace t.lca shrd_i.shared gid
              | None ->
                  let ng = copy_shrd shrd_i in
                  if input = shrd_i.shared then begin
                    match List.assoc_opt gid ng.consumers with
                    | Some fg -> fg := true
                    | None -> ()
                  end;
                  my := !my @ [ ng ])
            (info t input))
        (Smemo.Memo.group_children g);
      Hashtbl.replace t.info gid !my
    end
  in
  propagate memo.Smemo.Memo.root;
  (* replace the incremental LCAs with the exact postdominator-based ones
     (see the module comment) *)
  let pd = postdominators memo in
  Hashtbl.iter
    (fun shared consumers ->
      match lowest_common_postdominator memo pd consumers with
      | Some l -> Hashtbl.replace t.lca shared l
      | None -> Hashtbl.remove t.lca shared)
    t.consumers_of;
  Hashtbl.iter
    (fun s l ->
      let others = Option.value ~default:[] (Hashtbl.find_opt t.lca_of_group l) in
      Hashtbl.replace t.lca_of_group l (s :: others))
    t.lca;
  Hashtbl.filter_map_inplace
    (fun _ shared -> Some (List.sort Int.compare shared))
    t.lca_of_group;
  let classes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun gid _ ->
      let set = List.sort_uniq Int.compare (shared_below t gid) in
      let cls =
        match Hashtbl.find_opt classes set with
        | Some c -> c
        | None ->
            let c = Hashtbl.length classes in
            Hashtbl.add classes set c;
            c
      in
      Hashtbl.replace t.below_class gid cls)
    t.info;
  t
