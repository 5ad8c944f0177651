(* The deepest cross-check in the repository: execute plans with
   [verify_props] on, so every operator's *claimed* delivered physical
   properties (partitioning, sort order) are checked against the rows it
   actually produced on the simulated cluster. A property-derivation bug in
   the optimizer that the static plan checker misses would surface here. *)

let check_script ?(machines = 9) ~catalog name script =
  let r = Cse.Pipeline.run ~catalog script in
  List.iter
    (fun (label, plan) ->
      let v =
        Sexec.Validate.check ~verify_props:true ~machines catalog
          r.Cse.Pipeline.dag plan
      in
      if not v.Sexec.Validate.ok then
        Alcotest.failf "%s (%s): %s" name label
          (String.concat "; " v.Sexec.Validate.mismatches))
    [
      ("conventional", r.Cse.Pipeline.conventional_plan);
      ("cse", r.Cse.Pipeline.cse_plan);
      ("phase1", r.Cse.Pipeline.phase1_plan);
    ]

let test_paper_scripts () =
  List.iter
    (fun (name, script) ->
      check_script ~catalog:(Relalg.Catalog.default ()) name script)
    Thelpers.small_builtins

let test_order_by_script () =
  check_script ~catalog:(Relalg.Catalog.default ()) "order-by"
    {|R0 = EXTRACT A,B,C,D FROM "test.log" USING L;
      R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B;
      T = SELECT Sum(S) AS Total FROM R;
      OUTPUT R TO "r.out" ORDER BY B, A DESC;
      OUTPUT T TO "t.out";|}

let test_random_scripts () =
  for seed = 1 to 20 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:10 () in
    check_script ~machines:5 ~catalog:(Sworkload.Random_gen.catalog ())
      (Printf.sprintf "seed %d" seed)
      script
  done

let test_verification_catches_lies () =
  (* sanity of the checker itself: a node claiming hash{B} over round-robin
     data must be flagged *)
  let catalog = Relalg.Catalog.default () in
  let schema =
    Relalg.Catalog.file_schema
      (Option.get (Relalg.Catalog.find catalog "test.log"))
  in
  let stats = { Slogical.Stats.rows = 100.0; row_bytes = 8.0; ndvs = [] } in
  let extract =
    Sphys.Plan.make
      ~op:(Sphys.Physop.P_extract { file = "test.log"; extractor = "L"; schema })
      ~children:[] ~group:0 ~schema ~stats ~op_cost:1.0 ()
  in
  (* forge the delivered properties *)
  let lying =
    {
      extract with
      Sphys.Plan.props =
        Sphys.Props.make
          (Sphys.Partition.Hashed (Relalg.Colset.singleton "B"))
          [];
    }
  in
  let out =
    Sphys.Plan.make
      ~op:(Sphys.Physop.P_output { file = "o" })
      ~children:[ lying ] ~group:1 ~schema ~stats ~op_cost:1.0 ()
  in
  let engine = Sexec.Engine.create ~verify_props:true ~machines:7 catalog in
  ignore (Sexec.Engine.run engine out);
  Alcotest.(check bool) "lie detected" true
    (engine.Sexec.Engine.prop_violations <> [])

let test_verification_catches_missing_columns () =
  (* regression: a claimed partition or sort column absent from the
     delivered schema used to be skipped silently; it must be flagged *)
  let catalog = Relalg.Catalog.default () in
  let schema =
    Relalg.Catalog.file_schema
      (Option.get (Relalg.Catalog.find catalog "test.log"))
  in
  let stats = { Slogical.Stats.rows = 100.0; row_bytes = 8.0; ndvs = [] } in
  let extract =
    Sphys.Plan.make
      ~op:(Sphys.Physop.P_extract { file = "test.log"; extractor = "L"; schema })
      ~children:[] ~group:0 ~schema ~stats ~op_cost:1.0 ()
  in
  let run_with props =
    let lying = { extract with Sphys.Plan.props = props } in
    let out =
      Sphys.Plan.make
        ~op:(Sphys.Physop.P_output { file = "o" })
        ~children:[ lying ] ~group:1 ~schema ~stats ~op_cost:1.0 ()
    in
    let engine = Sexec.Engine.create ~verify_props:true ~machines:7 catalog in
    ignore (Sexec.Engine.run engine out);
    engine.Sexec.Engine.prop_violations
  in
  Alcotest.(check bool) "phantom hash column detected" true
    (run_with
       (Sphys.Props.make
          (Sphys.Partition.Hashed (Relalg.Colset.singleton "NO_SUCH_COL"))
          [])
    <> []);
  Alcotest.(check bool) "phantom sort column detected" true
    (run_with
       (Sphys.Props.make Sphys.Partition.Roundrobin
          [ ("NO_SUCH_COL", Sphys.Sortorder.Asc) ])
    <> [])

let test_verification_accepts_truth () =
  let catalog = Relalg.Catalog.default () in
  let r =
    Cse.Pipeline.run ~catalog Sworkload.Paper_scripts.s1
  in
  let engine = Sexec.Engine.create ~verify_props:true ~machines:7 catalog in
  ignore (Sexec.Engine.run engine r.Cse.Pipeline.cse_plan);
  Alcotest.(check (list string)) "no violations" []
    engine.Sexec.Engine.prop_violations

let () =
  Alcotest.run "prop-exec"
    [
      ( "delivered properties hold at runtime",
        [
          Alcotest.test_case "paper scripts" `Slow test_paper_scripts;
          Alcotest.test_case "order by / grand total" `Quick test_order_by_script;
          Alcotest.test_case "random scripts" `Slow test_random_scripts;
          Alcotest.test_case "checker detects lies" `Quick
            test_verification_catches_lies;
          Alcotest.test_case "checker detects phantom columns" `Quick
            test_verification_catches_missing_columns;
          Alcotest.test_case "checker accepts truth" `Quick
            test_verification_accepts_truth;
        ] );
    ]
