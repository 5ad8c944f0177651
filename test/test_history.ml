open Sphys

(* Section V (property-history recording and range expansion) and
   Section VIII-C (property ranking) tests. *)

let cs = Thelpers.colset

let mk_history () = Cse.History.create Cse.Config.default

let test_range_expansion_paper_example () =
  (* the paper's example: [∅,{A,B,C}] expands into the seven non-empty
     subsets *)
  let h = mk_history () in
  Cse.History.record h 1
    (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B"; "C" ])) []);
  let entries = Cse.History.entries h 1 in
  Alcotest.(check int) "seven entries" 7 (List.length entries);
  let sets =
    List.filter_map
      (fun (e : Cse.History.entry) ->
        match e.Cse.History.props.Reqprops.part with
        | Reqprops.Hash_exact s -> Some (Relalg.Colset.to_string s)
        | _ -> None)
      entries
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
  Alcotest.(check int) "capped expansion" 10
    (List.length (Cse.History.entries h 1))

let test_dedup () =
  let h = mk_history () in
  let req = Reqprops.make (Reqprops.Hash_exact (cs [ "B" ])) [] in
  Cse.History.record h 1 req;
  Cse.History.record h 1 req;
  Alcotest.(check int) "no duplicates" 1 (List.length (Cse.History.entries h 1));
  (* overlapping ranges dedup against previous expansions *)
  Cse.History.record h 1 (Reqprops.make (Reqprops.Hash_subset (cs [ "B"; "C" ])) []);
  Alcotest.(check int) "B shared between range and exact" 3
    (List.length (Cse.History.entries h 1))

let test_sort_kept_in_entries () =
  let h = mk_history () in
  let sort = Sortorder.asc [ "B"; "A" ] in
  Cse.History.record h 1 (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) sort);
  List.iter
    (fun (e : Cse.History.entry) ->
      Alcotest.(check bool) "sort preserved" true
        (Sortorder.equal e.Cse.History.props.Reqprops.sort sort))
    (Cse.History.entries h 1)

let test_any_recorded_as_is () =
  let h = mk_history () in
  Cse.History.record h 1 (Reqprops.make Reqprops.Any (Sortorder.asc [ "A" ]));
  match Cse.History.entries h 1 with
  | [ e ] ->
      Alcotest.(check bool) "any stays" true
        (e.Cse.History.props.Reqprops.part = Reqprops.Any)
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
  let h = mk_history () in
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
  (* with ranking disabled, insertion order is preserved *)
  let h2 =
    Cse.History.create
      { Cse.Config.default with Cse.Config.use_property_ranking = false }
  in
  Cse.History.record h2 1
    (Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) []);
  Cse.History.note_best h2 1 (Some win);
  let first = List.hd (Cse.History.ranked_properties h2 1) in
  let first_recorded =
    (List.hd (Cse.History.entries h2 1)).Cse.History.props
  in
  Alcotest.(check bool) "insertion order kept" true
    (Reqprops.equal first first_recorded)

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
