(* Quickstart: optimize the paper's motivating script (Section I / S1)
   with and without common-subexpression exploitation.

   Run with:  dune exec examples/quickstart.exe *)

let script =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
|}

let () =
  (* 1. A catalog describes the input files: row counts and per-column
        distinct values drive both cardinality estimation and the
        synthetic data used by the simulated cluster. *)
  let catalog = Relalg.Catalog.default () in

  (* 2. One call runs the whole pipeline: parse, bind, optimize the script
        conventionally, then with the CSE framework (fingerprints, spools,
        property history, LCAs, re-optimization rounds). *)
  let r = Cse.Pipeline.run ~catalog script in

  Fmt.pr "### Conventional plan — the shared aggregation runs twice@.%a@."
    Sphys.Plan_pp.pp r.Cse.Pipeline.conventional_plan;
  Fmt.pr "### CSE plan — materialized once, consumed twice@.%a@."
    Sphys.Plan_pp.pp r.Cse.Pipeline.cse_plan;
  Fmt.pr "estimated cost: %.4g -> %.4g (%.1f%% of conventional)@."
    r.Cse.Pipeline.conventional_cost r.Cse.Pipeline.cse_cost
    (100.0 *. Cse.Pipeline.ratio r);

  (* 3. Execute both plans on a simulated 25-machine cluster and check
        they produce identical results. *)
  let check name plan =
    let v = Sexec.Validate.check ~machines:25 catalog r.Cse.Pipeline.dag plan in
    Fmt.pr "%s execution: %s (%d rows shuffled)@." name
      (if v.Sexec.Validate.ok then "matches the reference" else "MISMATCH")
      v.Sexec.Validate.engine.Sexec.Engine.counters.Sexec.Engine.rows_shuffled
  in
  check "conventional" r.Cse.Pipeline.conventional_plan;
  check "CSE" r.Cse.Pipeline.cse_plan
