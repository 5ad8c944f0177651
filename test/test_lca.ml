(* Algorithm 3 tests: shared-group propagation and LCA identification,
   including the Figure 3(c) case where the LCA is *not* the lowest common
   ancestor, cross-checked against a brute-force reference on random
   DAGs. *)

let prepare script =
  let memo = Thelpers.memo_of script in
  let shared = Cse.Spool.identify memo in
  let si = Cse.Shared_info.compute memo in
  (memo, shared, si)

let test_s1_lca_is_root () =
  let memo, shared, si = prepare Sworkload.Paper_scripts.s1 in
  let s = (List.hd shared).Cse.Spool.spool in
  Alcotest.(check (option int)) "LCA is the sequence root"
    (Some memo.Smemo.Memo.root)
    (Cse.Shared_info.lca_of_shared si s)

let test_s3_two_lcas () =
  (* Figure 3(b): each shared group's LCA is its own join *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.s3 in
  let lcas =
    List.filter_map
      (fun (s : Cse.Spool.shared) ->
        Cse.Shared_info.lca_of_shared si s.Cse.Spool.spool)
      shared
  in
  Alcotest.(check int) "two LCAs" 2 (List.length lcas);
  Alcotest.(check bool) "different LCAs" true
    (match lcas with [ a; b ] -> a <> b | _ -> false);
  List.iter
    (fun l ->
      Alcotest.(check bool) "LCA below root" true (l <> memo.Smemo.Memo.root);
      (* each LCA is a join group *)
      let g = Smemo.Memo.group memo l in
      Alcotest.(check bool) "LCA is a join" true
        (List.exists
           (fun (e : Smemo.Memo.mexpr) ->
             match e.Smemo.Memo.mop with Slogical.Logop.Join _ -> true | _ -> false)
           g.Smemo.Memo.exprs))
    lcas

let test_s4_lca_not_lowest_common_ancestor () =
  (* Figure 3(c): the joins are the lowest common ancestors of R1/R2's
     consumers, but direct OUTPUT paths bypass them, so the LCA is the
     root *)
  let memo, shared, si = prepare Sworkload.Paper_scripts.s4 in
  List.iter
    (fun (s : Cse.Spool.shared) ->
      Alcotest.(check (option int)) "LCA overridden up to the root"
        (Some memo.Smemo.Memo.root)
        (Cse.Shared_info.lca_of_shared si s.Cse.Spool.spool))
    shared

let test_independent_pair_lca () =
  let memo, shared, si = prepare Sworkload.Paper_scripts.independent_pair in
  Alcotest.(check int) "two shared" 2 (List.length shared);
  List.iter
    (fun (s : Cse.Spool.shared) ->
      Alcotest.(check (option int)) "common LCA at the root"
        (Some memo.Smemo.Memo.root)
        (Cse.Shared_info.lca_of_shared si s.Cse.Spool.spool))
    shared

let test_shared_below_propagation () =
  let memo, shared, si = prepare Sworkload.Paper_scripts.s1 in
  let s = (List.hd shared).Cse.Spool.spool in
  (* every group on a path from the spool to the root knows about it *)
  Alcotest.(check (list int)) "root sees the shared group" [ s ]
    (Cse.Shared_info.shared_below si memo.Smemo.Memo.root);
  Alcotest.(check (list int)) "spool sees itself" [ s ]
    (Cse.Shared_info.shared_below si s);
  (* the extract below the spool does not *)
  Alcotest.(check (list int)) "extract sees nothing" []
    (Cse.Shared_info.shared_below si 0)

let test_consumer_lists () =
  let _, shared, si = prepare Sworkload.Paper_scripts.s2 in
  let s = (List.hd shared).Cse.Spool.spool in
  Alcotest.(check int) "three consumers recorded" 3
    (List.length (Cse.Shared_info.consumers si s))

(* --- brute-force cross-check on random DAGs ------------------------------ *)

(* Build a random memo whose groups are Sequence nodes over Extract leaves
   (Sequence is variadic, so any DAG shape is expressible), mark random
   internal groups as shared, and compare Algorithm 3 with the definition:
   the LCA of a shared group's consumers is the lowest group contained in
   every consumer-to-root path. *)
let random_memo seed =
  let rng = Sutil.Rng.create seed in
  let catalog = Thelpers.default_catalog () in
  let b = Slogical.Dag.builder () in
  let schema =
    Relalg.Catalog.file_schema
      (Option.get (Relalg.Catalog.find catalog "test.log"))
  in
  let n_leaves = 1 + Sutil.Rng.int rng 3 in
  let leaves =
    List.init n_leaves (fun i ->
        Slogical.Dag.add b
          (Slogical.Logop.Extract
             { file = Printf.sprintf "test%s.log" (if i = 0 then "" else "2");
               extractor = "L"; schema })
          [] [])
  in
  let nodes = ref leaves in
  let n_internal = 3 + Sutil.Rng.int rng 8 in
  for _ = 1 to n_internal do
    let k = 1 + Sutil.Rng.int rng 3 in
    let children =
      List.init k (fun _ -> Sutil.Rng.pick_list rng !nodes)
      |> List.map (fun (n : Slogical.Dag.node) -> n)
    in
    let children =
      List.sort_uniq
        (fun (a : Slogical.Dag.node) b -> Int.compare a.Slogical.Dag.id b.Slogical.Dag.id)
        children
    in
    let node =
      Slogical.Dag.add b Slogical.Logop.Sequence
        (List.map (fun (n : Slogical.Dag.node) -> n.Slogical.Dag.id) children)
        (List.map (fun (n : Slogical.Dag.node) -> n.Slogical.Dag.schema) children)
    in
    nodes := node :: !nodes
  done;
  (* root covering everything still dangling *)
  let parents = Array.make (List.length !nodes + 5) false in
  List.iter
    (fun (n : Slogical.Dag.node) ->
      List.iter (fun c -> parents.(c) <- true) n.Slogical.Dag.children)
    !nodes;
  let dangling =
    List.filter (fun (n : Slogical.Dag.node) -> not parents.(n.Slogical.Dag.id)) !nodes
  in
  let root =
    Slogical.Dag.add b Slogical.Logop.Sequence
      (List.map (fun (n : Slogical.Dag.node) -> n.Slogical.Dag.id) dangling)
      (List.map (fun (n : Slogical.Dag.node) -> n.Slogical.Dag.schema) dangling)
  in
  let dag = Slogical.Dag.finish b ~root in
  let memo = Smemo.Memo.of_dag ~catalog ~machines:4 dag in
  (* mark 1-2 random multi-parent groups as shared *)
  let ps = Smemo.Memo.parents memo in
  let candidates = ref [] in
  Array.iteri
    (fun g parents -> if List.length parents >= 2 then candidates := g :: !candidates)
    ps;
  let shared =
    match !candidates with
    | [] -> []
    | cands ->
        let n = 1 + Sutil.Rng.int rng (min 2 (List.length cands)) in
        List.sort_uniq Int.compare
          (List.init n (fun _ -> Sutil.Rng.pick_list rng cands))
  in
  List.iter
    (fun g -> (Smemo.Memo.group memo g).Smemo.Memo.shared <- true)
    shared;
  (memo, shared)

(* reference: g is on every path from the consumer to the root iff no
   consumer-to-root path avoids g (equivalently, removing g disconnects
   them); the consumer and the root themselves are trivially on every
   path *)
let on_all_paths memo ~root ~consumer g =
  if g = consumer || g = root then true
  else begin
    let parents = Smemo.Memo.parents memo in
    let seen = Hashtbl.create 16 in
    (* can we reach the root from [x] without stepping on [g]? *)
    let rec avoids x =
      x = root
      || (x <> g
         && (not (Hashtbl.mem seen x))
         &&
         (Hashtbl.replace seen x ();
          List.exists avoids parents.(x)))
    in
    not (avoids consumer)
  end

let reference_lca memo ~root consumers =
  let size = Smemo.Memo.size memo in
  let live = Smemo.Memo.reachable memo in
  let candidates = ref [] in
  for g = 0 to size - 1 do
    if
      live.(g)
      && List.for_all (fun c -> on_all_paths memo ~root ~consumer:c g) consumers
    then candidates := g :: !candidates
  done;
  (* the lowest: the candidate from which every other candidate is
     reachable upward *)
  let parents = Smemo.Memo.parents memo in
  let rec ancestors acc x =
    List.fold_left
      (fun acc p -> if List.mem p acc then acc else ancestors (p :: acc) p)
      acc parents.(x)
  in
  List.find_opt
    (fun g ->
      let ups = ancestors [ g ] g in
      List.for_all (fun other -> List.mem other ups) !candidates)
    !candidates

(* reference: the groups reachable from [g] downward, [g] included *)
let descendants memo g =
  let seen = Hashtbl.create 16 in
  let rec go x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      List.iter go (Smemo.Memo.group_children (Smemo.Memo.group memo x))
    end
  in
  go g;
  seen

let test_lca_against_brute_force () =
  let checked = ref 0 in
  for seed = 1 to 150 do
    let memo, shared = random_memo seed in
    let si = Cse.Shared_info.compute memo in
    let live = Smemo.Memo.reachable memo in
    let sorted_shared = List.sort_uniq Int.compare shared in
    (* shared-below sets are reachability: the shared groups at or below
       each reachable group, ascending *)
    Array.iteri
      (fun g is_live ->
        if is_live then
          let below = descendants memo g in
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d: shared_below of %d" seed g)
            (List.filter (Hashtbl.mem below) sorted_shared)
            (Cse.Shared_info.shared_below si g))
      live;
    (* a shared group's consumers are its parents *)
    List.iter
      (fun s ->
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: consumers of %d" seed s)
          (Smemo.Memo.parents memo).(s)
          (Cse.Shared_info.consumers si s))
      sorted_shared;
    if shared <> [] then begin
      List.iter
        (fun s ->
          let consumers = Cse.Shared_info.consumers si s in
          if consumers <> [] then begin
            let expected =
              reference_lca memo ~root:memo.Smemo.Memo.root consumers
            in
            let actual = Cse.Shared_info.lca_of_shared si s in
            incr checked;
            if expected <> actual then
              Alcotest.failf
                "seed %d shared %d consumers [%s]: reference %s, algorithm %s"
                seed s
                (String.concat ";" (List.map string_of_int consumers))
                (match expected with Some x -> string_of_int x | None -> "-")
                (match actual with Some x -> string_of_int x | None -> "-")
          end)
        shared;
      (* the inverse table lists, per group, the shared groups it is the
         LCA of, ascending *)
      for g = 0 to Smemo.Memo.size memo - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: lca_groups of %d" seed g)
          (List.filter
             (fun s -> Cse.Shared_info.lca_of_shared si s = Some g)
             (List.sort_uniq Int.compare shared))
          (Cse.Shared_info.lca_groups si g)
      done
    end
  done;
  Alcotest.(check bool) "exercised enough cases" true (!checked > 50)

let () =
  Alcotest.run "lca"
    [
      ( "paper figures",
        [
          Alcotest.test_case "S1 root LCA" `Quick test_s1_lca_is_root;
          Alcotest.test_case "S3 join LCAs (Fig 3b)" `Quick test_s3_two_lcas;
          Alcotest.test_case "S4 LCA above joins (Fig 3c)" `Quick
            test_s4_lca_not_lowest_common_ancestor;
          Alcotest.test_case "independent pair" `Quick test_independent_pair_lca;
          Alcotest.test_case "shared-below propagation" `Quick
            test_shared_below_propagation;
          Alcotest.test_case "consumer lists" `Quick test_consumer_lists;
        ] );
      ( "reference",
        [ Alcotest.test_case "brute force (150 DAGs)" `Slow test_lca_against_brute_force ]
      );
    ]
