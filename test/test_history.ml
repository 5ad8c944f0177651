open Sphys

(* Section V (property-history recording and range expansion) and
   Section VIII-C (property ranking) tests. *)

let cs = Thelpers.colset

(* no VIII-C ranking: [ranked_properties] lists the recorded property
   sets in first-recorded order *)
let mk_history () =
  Cse.History.create
    { Cse.Config.default with Cse.Config.use_property_ranking = false }

let recorded h gid = Cse.History.ranked_properties h gid

let test_range_expansion_paper_example () =
  (* the paper's example: [∅,{A,B,C}] expands into the seven non-empty
     subsets *)
  let h = mk_history () in
  Cse.History.record h 1
    (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B"; "C" ])) []);
  Alcotest.(check int) "seven entries" 7 (Cse.History.count h 1);
  let sets =
    List.filter_map
      (fun (p : Reqprops.t) ->
        match p.Reqprops.part with
        | Reqprops.Hash_exact s -> Some (Relalg.Colset.to_string s)
        | _ -> None)
      (recorded h 1)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "exact subsets"
    [ "{A,B,C}"; "{A,B}"; "{A,C}"; "{A}"; "{B,C}"; "{B}"; "{C}" ]
    sets

let test_expansion_cap () =
  let h = mk_history () in
  Cse.History.record h 1
    (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B"; "C"; "D"; "E" ])) []);
  (* a range over more than four columns: full set + 5 singletons + 4
     adjacent pairs = 10 (not 31) *)
  Alcotest.(check int) "capped expansion" 10 (Cse.History.count h 1)

let test_dedup () =
  let h = mk_history () in
  let req = Reqprops.make (Reqprops.Hash_exact (cs [ "B" ])) [] in
  Cse.History.record h 1 req;
  Cse.History.record h 1 req;
  Alcotest.(check int) "no duplicates" 1 (Cse.History.count h 1);
  (* overlapping ranges dedup against previous expansions *)
  Cse.History.record h 1 (Reqprops.make (Reqprops.Hash_subset (cs [ "B"; "C" ])) []);
  Alcotest.(check int) "B shared between range and exact" 3
    (Cse.History.count h 1)

let test_sort_kept_in_entries () =
  let h = mk_history () in
  let sort = Sortorder.asc [ "B"; "A" ] in
  Cse.History.record h 1 (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) sort);
  List.iter
    (fun (p : Reqprops.t) ->
      Alcotest.(check bool) "sort preserved" true
        (Sortorder.equal p.Reqprops.sort sort))
    (recorded h 1)

let test_any_recorded_as_is () =
  let h = mk_history () in
  Cse.History.record h 1 (Reqprops.make Reqprops.Any (Sortorder.asc [ "A" ]));
  match recorded h 1 with
  | [ p ] ->
      Alcotest.(check bool) "any stays" true (p.Reqprops.part = Reqprops.Any)
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l)

let dummy_plan part sort =
  let schema = [ Relalg.Schema.column "A" Relalg.Schema.Tint ] in
  let stats = { Slogical.Stats.rows = 10.0; row_bytes = 8.0; ndvs = [] } in
  let extract =
    Plan.make
      ~op:(Physop.P_extract { file = "f"; extractor = "X"; schema })
      ~children:[] ~group:0 ~schema ~stats ~op_cost:1.0 ()
  in
  let exchanged =
    match part with
    | Partition.Hashed s ->
        Plan.make ~op:(Physop.P_exchange { cols = s }) ~children:[ extract ]
          ~group:0 ~schema ~stats ~op_cost:1.0 ()
    | _ -> extract
  in
  if Sortorder.is_empty sort then exchanged
  else
    Plan.make ~op:(Physop.P_sort { order = sort }) ~children:[ exchanged ]
      ~group:0 ~schema ~stats ~op_cost:1.0 ()

let test_frequency_ranking () =
  let h = Cse.History.create Cse.Config.default in
  Cse.History.record h 1 (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) []);
  (* the winner delivered hash{B} twice: the {B} entry should rank first *)
  let win = dummy_plan (Partition.Hashed (cs [ "B" ])) [] in
  Cse.History.note_best h 1 (Some win);
  Cse.History.note_best h 1 (Some win);
  let ranked = Cse.History.ranked_properties h 1 in
  (match List.hd ranked with
  | { Reqprops.part = Reqprops.Hash_exact s; _ } ->
      Alcotest.check Thelpers.colset_t "B first" (cs [ "B" ]) s
  | _ -> Alcotest.fail "expected exact {B} first");
  (* with ranking disabled, insertion order is preserved: crediting the
     last-recorded set leaves the order of a history never credited *)
  let range = Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) [] in
  let h2 = mk_history () and uncredited = mk_history () in
  Cse.History.record h2 1 range;
  Cse.History.record uncredited 1 range;
  (match List.rev (recorded uncredited 1) with
  | { Reqprops.part = Reqprops.Hash_exact last; _ } :: _ :: _ ->
      Cse.History.note_best h2 1 (Some (dummy_plan (Partition.Hashed last) []))
  | _ -> Alcotest.fail "expected several exact sets");
  Alcotest.(check bool) "insertion order kept" true
    (List.equal Reqprops.equal (recorded h2 1) (recorded uncredited 1))

let test_recorded_during_phase1 () =
  (* driving the actual pipeline records a non-empty history at the spool *)
  let r = Thelpers.pipeline Sworkload.Paper_scripts.s1 in
  match r.Cse.Pipeline.history_sizes with
  | [ (_, n) ] -> Alcotest.(check bool) "history recorded" true (n >= 6)
  | _ -> Alcotest.fail "expected one shared group"

let () =
  Alcotest.run "history"
    [
      ( "recording",
        [
          Alcotest.test_case "paper expansion example" `Quick
            test_range_expansion_paper_example;
          Alcotest.test_case "expansion cap" `Quick test_expansion_cap;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "sort kept" `Quick test_sort_kept_in_entries;
          Alcotest.test_case "any kept" `Quick test_any_recorded_as_is;
          Alcotest.test_case "phase-1 integration" `Quick test_recorded_during_phase1;
        ] );
      ( "ranking (VIII-C)",
        [
          Alcotest.test_case "frequency" `Quick test_frequency_ranking;
        ] );
    ]
