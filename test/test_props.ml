open Sphys

(* Physical-property tests: the partitioning satisfaction rules the whole
   paper relies on, sort-order prefixes, property derivation through
   operators, and the plan checker. *)

let cs = Thelpers.colset

(* --- partitioning satisfaction ----------------------------------------- *)

let sat part req = Reqprops.part_satisfied part req

let test_range_satisfaction () =
  let abc = cs [ "A"; "B"; "C" ] in
  (* partitioned on {B} IS partitioned on {A,B,C} -- Figure 1(b) *)
  Alcotest.(check bool) "B within [∅,ABC]" true
    (sat (Partition.Hashed (cs [ "B" ])) (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "AB within [∅,ABC]" true
    (sat (Partition.Hashed (cs [ "A"; "B" ])) (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "ABC within [∅,ABC]" true
    (sat (Partition.Hashed abc) (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "D not within" false
    (sat (Partition.Hashed (cs [ "D" ])) (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "ABD not within" false
    (sat (Partition.Hashed (cs [ "A"; "B"; "D" ])) (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "roundrobin never" false
    (sat Partition.Roundrobin (Reqprops.Hash_subset abc));
  Alcotest.(check bool) "serial trivially" true
    (sat Partition.Serial (Reqprops.Hash_subset abc))

let test_exact_satisfaction () =
  let b = cs [ "B" ] in
  Alcotest.(check bool) "exact match" true
    (sat (Partition.Hashed b) (Reqprops.Hash_exact b));
  Alcotest.(check bool) "subset not enough for exact" false
    (sat (Partition.Hashed b) (Reqprops.Hash_exact (cs [ "A"; "B" ])));
  Alcotest.(check bool) "serial not exact" false
    (sat Partition.Serial (Reqprops.Hash_exact b))

let test_any_and_serial () =
  Alcotest.(check bool) "any accepts roundrobin" true
    (sat Partition.Roundrobin Reqprops.Any);
  Alcotest.(check bool) "serial req" true (sat Partition.Serial Reqprops.Serial_req);
  Alcotest.(check bool) "hashed not serial" false
    (sat (Partition.Hashed (cs [ "A" ])) Reqprops.Serial_req)

let cols_gen =
  QCheck.Gen.(
    map Relalg.Colset.of_list
      (list_size (int_range 0 4) (oneofl [ "A"; "B"; "C"; "D" ])))

let colset_arb = QCheck.make ~print:Relalg.Colset.to_string cols_gen

(* Hashed S satisfies the range [∅,C] exactly when ∅ ≠ S ⊆ C. *)
let prop_range_rule =
  Thelpers.qtest "range rule" (QCheck.pair colset_arb colset_arb)
    (fun (s, c) ->
      sat (Partition.Hashed s) (Reqprops.Hash_subset c)
      = ((not (Relalg.Colset.is_empty s)) && Relalg.Colset.subset s c))

(* Transitivity: within [∅,C] and C ⊆ C' implies within [∅,C']. *)
let prop_range_monotone =
  Thelpers.qtest "range monotone"
    (QCheck.triple colset_arb colset_arb colset_arb)
    (fun (s, c, extra) ->
      let c' = Relalg.Colset.union c extra in
      if sat (Partition.Hashed s) (Reqprops.Hash_subset c) then
        sat (Partition.Hashed s) (Reqprops.Hash_subset c')
      else true)

(* --- sort orders --------------------------------------------------------- *)

let asc = Sortorder.asc

let test_sort_prefix () =
  Alcotest.(check bool) "prefix" true
    (Sortorder.prefix (asc [ "A" ]) (asc [ "A"; "B" ]));
  Alcotest.(check bool) "equal" true
    (Sortorder.prefix (asc [ "A"; "B" ]) (asc [ "A"; "B" ]));
  Alcotest.(check bool) "longer fails" false
    (Sortorder.prefix (asc [ "A"; "B" ]) (asc [ "A" ]));
  Alcotest.(check bool) "order matters" false
    (Sortorder.prefix (asc [ "B"; "A" ]) (asc [ "A"; "B" ]));
  Alcotest.(check bool) "empty is prefix of all" true
    (Sortorder.prefix [] (asc [ "X" ]));
  Alcotest.(check bool) "direction matters" false
    (Sortorder.prefix [ ("A", Sortorder.Desc) ] (asc [ "A"; "B" ]))

let test_sort_rename () =
  let f = function "A" -> Some "X" | "B" -> None | c -> Some c in
  Alcotest.(check bool) "cut at unmappable" true
    (Sortorder.rename f (asc [ "A"; "B"; "C" ]) = asc [ "X" ])

let test_retained_prefix () =
  let keep c = c <> "B" in
  Alcotest.(check bool) "retained stops at first dropped column" true
    (Sortorder.retained_prefix keep (asc [ "A"; "B"; "C" ]) = asc [ "A" ])

(* --- delivered property derivation -------------------------------------- *)

let schema cols = List.map (fun c -> Relalg.Schema.column c Relalg.Schema.Tint) cols

let props part sort = Props.make part sort

let test_deliver_exchange () =
  let d =
    Physop.deliver
      (Physop.P_exchange { cols = cs [ "B" ] })
      (schema [ "A"; "B" ])
      [ props Partition.Roundrobin (asc [ "A" ]) ]
  in
  Alcotest.(check bool) "hash delivered" true
    (Partition.equal d.Props.part (Partition.Hashed (cs [ "B" ])));
  Alcotest.(check bool) "sort destroyed" true (Sortorder.is_empty d.Props.sort)

let test_deliver_merge_exchange () =
  let d =
    Physop.deliver
      (Physop.P_merge_exchange { cols = cs [ "B" ] })
      (schema [ "A"; "B" ])
      [ props Partition.Roundrobin (asc [ "A"; "B" ]) ]
  in
  Alcotest.(check bool) "sort preserved" true (d.Props.sort = asc [ "A"; "B" ])

let test_deliver_sort () =
  let d =
    Physop.deliver
      (Physop.P_sort { order = asc [ "C" ] })
      (schema [ "C" ])
      [ props (Partition.Hashed (cs [ "C" ])) [] ]
  in
  Alcotest.(check bool) "partitioning preserved" true
    (Partition.equal d.Props.part (Partition.Hashed (cs [ "C" ])));
  Alcotest.(check bool) "sorted" true (d.Props.sort = asc [ "C" ])

let test_deliver_project_rename () =
  let items = [ (Relalg.Expr.Col "A", "X"); (Relalg.Expr.Col "B", "Y") ] in
  let d =
    Physop.deliver
      (Physop.P_project { items })
      (schema [ "X"; "Y" ])
      [ props (Partition.Hashed (cs [ "A" ])) (asc [ "A"; "B" ]) ]
  in
  Alcotest.(check bool) "partitioning renamed" true
    (Partition.equal d.Props.part (Partition.Hashed (cs [ "X" ])));
  Alcotest.(check bool) "sort renamed" true (d.Props.sort = asc [ "X"; "Y" ])

let test_deliver_project_drop () =
  (* dropping a partitioning column degrades to roundrobin *)
  let items = [ (Relalg.Expr.Col "B", "B") ] in
  let d =
    Physop.deliver
      (Physop.P_project { items })
      (schema [ "B" ])
      [ props (Partition.Hashed (cs [ "A" ])) (asc [ "A"; "B" ]) ]
  in
  Alcotest.(check bool) "degraded" true
    (Partition.equal d.Props.part Partition.Roundrobin);
  Alcotest.(check bool) "sort cut" true (Sortorder.is_empty d.Props.sort)

let test_deliver_union_copartitioned () =
  let b = Partition.Hashed (cs [ "B" ]) in
  let d =
    Physop.deliver Physop.P_union_all
      (schema [ "A"; "B" ])
      [ props b (asc [ "B" ]); props b [] ]
  in
  Alcotest.(check bool) "partitioning kept" true (Partition.equal d.Props.part b);
  Alcotest.(check bool) "order lost" true (Sortorder.is_empty d.Props.sort);
  let d2 =
    Physop.deliver Physop.P_union_all
      (schema [ "A"; "B" ])
      [ props b []; props (Partition.Hashed (cs [ "A" ])) [] ]
  in
  Alcotest.(check bool) "mismatched inputs degrade" true
    (Partition.equal d2.Props.part Partition.Roundrobin)

let test_deliver_stream_agg_keeps () =
  let d =
    Physop.deliver
      (Physop.P_stream_agg { keys = [ "A"; "B" ]; aggs = []; scope = Physop.Full })
      (schema [ "A"; "B" ])
      [ props (Partition.Hashed (cs [ "B" ])) (asc [ "B"; "A" ]) ]
  in
  Alcotest.(check bool) "partitioning kept" true
    (Partition.equal d.Props.part (Partition.Hashed (cs [ "B" ])));
  Alcotest.(check bool) "sort kept" true (d.Props.sort = asc [ "B"; "A" ])

(* --- requirement keys / weights ------------------------------------------ *)

let test_req_keys_distinct () =
  let reqs =
    [
      Reqprops.none;
      Reqprops.make (Reqprops.Hash_subset (cs [ "A" ])) [];
      Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) [];
      Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) (asc [ "A" ]);
      Reqprops.make Reqprops.Serial_req [];
    ]
  in
  let keys = List.map Reqprops.to_key reqs in
  Alcotest.(check int) "all keys distinct" (List.length reqs)
    (List.length (List.sort_uniq compare keys))

let test_enforcer_weights_decrease () =
  let reqs =
    [
      Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) (asc [ "A" ]);
      Reqprops.make (Reqprops.Hash_subset (cs [ "A"; "B" ])) (asc [ "B" ]);
      Reqprops.make Reqprops.Any (asc [ "A" ]);
      Reqprops.make Reqprops.Serial_req (asc [ "A" ]);
      Reqprops.make (Reqprops.Hash_exact (cs [ "A" ])) [];
    ]
  in
  List.iter
    (fun req ->
      List.iter
        (fun (alt : Sopt.Enforcers.alt) ->
          if Reqprops.weight alt.Sopt.Enforcers.inner >= Reqprops.weight req then
            Alcotest.fail "enforcer must weaken the requirement")
        (Sopt.Enforcers.alternatives req))
    reqs

let test_no_enforcers_for_none () =
  Alcotest.(check int) "nothing to enforce" 0
    (List.length (Sopt.Enforcers.alternatives Reqprops.none))

(* --- plan checker negative cases ----------------------------------------- *)

let dummy_stats =
  { Slogical.Stats.rows = 100.0; row_bytes = 8.0; ndvs = [ ("A", 10.0) ] }

let mk op children schema =
  Plan.make ~op ~children ~group:0 ~schema ~stats:dummy_stats ~op_cost:1.0 ()

let test_checker_catches_unsorted_stream_agg () =
  let extract =
    mk
      (Physop.P_extract
         { file = "f"; extractor = "X"; schema = schema [ "A"; "B" ] })
      []
      (schema [ "A"; "B" ])
  in
  let bad =
    mk
      (Physop.P_stream_agg { keys = [ "A" ]; aggs = []; scope = Physop.Local })
      [ extract ] (schema [ "A" ])
  in
  Alcotest.(check bool) "violation found" true
    (Plan_check.check_op bad <> [])

let test_checker_catches_unpartitioned_global () =
  let extract =
    mk
      (Physop.P_extract
         { file = "f"; extractor = "X"; schema = schema [ "A"; "B" ] })
      []
      (schema [ "A"; "B" ])
  in
  let sorted = mk (Physop.P_sort { order = asc [ "A" ] }) [ extract ] (schema [ "A"; "B" ]) in
  let bad =
    mk
      (Physop.P_stream_agg { keys = [ "A" ]; aggs = []; scope = Physop.Full })
      [ sorted ] (schema [ "A" ])
  in
  Alcotest.(check bool) "global agg needs partitioned input" true
    (Plan_check.check_op bad <> []);
  let ok_local =
    mk
      (Physop.P_stream_agg { keys = [ "A" ]; aggs = []; scope = Physop.Local })
      [ sorted ] (schema [ "A" ])
  in
  Alcotest.(check bool) "local agg is fine" true
    (Plan_check.check_op ok_local = [])

let test_checker_catches_non_copartitioned_join () =
  let side cols_part =
    let e =
      mk
        (Physop.P_extract
           { file = "f"; extractor = "X"; schema = schema [ "K"; "V" ] })
        []
        (schema [ "K"; "V" ])
    in
    mk (Physop.P_exchange { cols = cs cols_part }) [ e ] (schema [ "K"; "V" ])
  in
  let l = side [ "K" ] and r = side [ "V" ] in
  let bad =
    mk
      (Physop.P_hash_join
         { kind = Slogical.Logop.Inner; pairs = [ ("K", "K") ]; residual = None })
      [ l; r ]
      (schema [ "K"; "V"; "K"; "V" ])
  in
  Alcotest.(check bool) "co-partitioning enforced" true
    (Plan_check.check_op bad <> [])

(* --- sorted_on_keys / co_partitioned edge cases --------------------------- *)

let test_sorted_on_keys_edges () =
  (* no keys: any input qualifies, sorted or not *)
  Alcotest.(check bool) "empty keys, empty sort" true
    (Plan_check.sorted_on_keys [] []);
  Alcotest.(check bool) "empty keys, sorted input" true
    (Plan_check.sorted_on_keys (asc [ "A" ]) []);
  (* any permutation of the keys is an acceptable grouping prefix *)
  Alcotest.(check bool) "permuted prefix" true
    (Plan_check.sorted_on_keys (asc [ "B"; "A"; "C" ]) [ "A"; "B" ]);
  Alcotest.(check bool) "prefix too short" false
    (Plan_check.sorted_on_keys (asc [ "A" ]) [ "A"; "B" ]);
  (* a duplicated column in the sort prefix covers fewer keys than its
     length suggests *)
  Alcotest.(check bool) "duplicate column in sort prefix" false
    (Plan_check.sorted_on_keys (asc [ "A"; "A" ]) [ "A"; "B" ]);
  Alcotest.(check bool) "duplicate beyond the prefix is harmless" true
    (Plan_check.sorted_on_keys (asc [ "A"; "B"; "A" ]) [ "A"; "B" ]);
  (* the prefix must cover the keys exactly, not some superset column *)
  Alcotest.(check bool) "wrong column in prefix" false
    (Plan_check.sorted_on_keys (asc [ "A"; "C" ]) [ "A"; "B" ])

let test_co_partitioned_edges () =
  let pairs = [ ("K", "J") ] in
  (* serial on both sides always qualifies, even with no pairs *)
  Alcotest.(check bool) "serial/serial" true
    (Plan_check.co_partitioned [] Partition.Serial Partition.Serial);
  (* roundrobin never co-locates matching rows *)
  Alcotest.(check bool) "roundrobin left" false
    (Plan_check.co_partitioned pairs Partition.Roundrobin
       (Partition.Hashed (cs [ "J" ])));
  Alcotest.(check bool) "roundrobin both" false
    (Plan_check.co_partitioned pairs Partition.Roundrobin Partition.Roundrobin);
  (* a serial/hashed mix leaves one side's rows spread over machines *)
  Alcotest.(check bool) "serial/hashed mix" false
    (Plan_check.co_partitioned pairs Partition.Serial
       (Partition.Hashed (cs [ "J" ])));
  Alcotest.(check bool) "hashed/serial mix" false
    (Plan_check.co_partitioned pairs (Partition.Hashed (cs [ "K" ]))
       Partition.Serial);
  (* aligned hashing through the pair mapping qualifies; misaligned does
     not *)
  Alcotest.(check bool) "aligned hashed" true
    (Plan_check.co_partitioned pairs
       (Partition.Hashed (cs [ "K" ]))
       (Partition.Hashed (cs [ "J" ])));
  Alcotest.(check bool) "misaligned hashed" false
    (Plan_check.co_partitioned pairs
       (Partition.Hashed (cs [ "V" ]))
       (Partition.Hashed (cs [ "J" ])));
  (* hashing on empty column sets can never certify co-location *)
  Alcotest.(check bool) "empty hash sets" false
    (Plan_check.co_partitioned pairs
       (Partition.Hashed (cs []))
       (Partition.Hashed (cs [])))

let () =
  Alcotest.run "props"
    [
      ( "partitioning",
        [
          Alcotest.test_case "range rule" `Quick test_range_satisfaction;
          Alcotest.test_case "exact rule" `Quick test_exact_satisfaction;
          Alcotest.test_case "any/serial" `Quick test_any_and_serial;
          prop_range_rule;
          prop_range_monotone;
        ] );
      ( "sorting",
        [
          Alcotest.test_case "prefix" `Quick test_sort_prefix;
          Alcotest.test_case "rename" `Quick test_sort_rename;
          Alcotest.test_case "retained prefix" `Quick test_retained_prefix;
        ] );
      ( "deliver",
        [
          Alcotest.test_case "exchange" `Quick test_deliver_exchange;
          Alcotest.test_case "merge exchange" `Quick test_deliver_merge_exchange;
          Alcotest.test_case "sort" `Quick test_deliver_sort;
          Alcotest.test_case "project rename" `Quick test_deliver_project_rename;
          Alcotest.test_case "project drop" `Quick test_deliver_project_drop;
          Alcotest.test_case "union co-partitioned" `Quick
            test_deliver_union_copartitioned;
          Alcotest.test_case "stream agg" `Quick test_deliver_stream_agg_keeps;
        ] );
      ( "requirements",
        [
          Alcotest.test_case "distinct keys" `Quick test_req_keys_distinct;
          Alcotest.test_case "enforcer weights" `Quick test_enforcer_weights_decrease;
          Alcotest.test_case "none needs nothing" `Quick test_no_enforcers_for_none;
        ] );
      ( "checker",
        [
          Alcotest.test_case "unsorted stream agg" `Quick
            test_checker_catches_unsorted_stream_agg;
          Alcotest.test_case "unpartitioned global agg" `Quick
            test_checker_catches_unpartitioned_global;
          Alcotest.test_case "non-co-partitioned join" `Quick
            test_checker_catches_non_copartitioned_join;
          Alcotest.test_case "sorted_on_keys edge cases" `Quick
            test_sorted_on_keys_edges;
          Alcotest.test_case "co_partitioned edge cases" `Quick
            test_co_partitioned_edges;
        ] );
    ]
