(* The mutation-tested audit contract (test/mutate/mutate.ml).

   Each mutation corrupts one structure the optimizer or executor trusts
   and demands the responsible analyzer report its specific SA code;
   Mutate.verify additionally rejects vacuous experiments (baseline
   already dirty or already carrying the code).  The corpus-shape tests
   pin the guarantees the audit harness advertises: at least twenty
   distinct corruptions, unique labels, and coverage of every layer of
   the diagnostic catalog. *)

let test_mutation (m : Mutate.mutation) () =
  match Mutate.verify m with Ok () -> () | Error msg -> Alcotest.fail msg

let test_corpus_size () =
  let n = List.length Mutate.all in
  if n < 20 then Alcotest.failf "only %d mutations in the corpus, need >= 20" n

let test_names_unique () =
  let names = List.map (fun (m : Mutate.mutation) -> m.Mutate.mname) Mutate.all in
  let dups =
    List.filter
      (fun n -> List.length (List.filter (String.equal n) names) > 1)
      (List.sort_uniq String.compare names)
  in
  if dups <> [] then
    Alcotest.failf "duplicate mutation names: %s" (String.concat ", " dups)

let test_codes_cataloged () =
  List.iter
    (fun (m : Mutate.mutation) ->
      match Sanalysis.Diag.find_entry m.Mutate.mcode with
      | Some _ -> ()
      | None ->
          Alcotest.failf "%s expects %s, which is not in the catalog"
            m.Mutate.mname m.Mutate.mcode)
    Mutate.all

let test_layer_coverage () =
  (* every layer with corruptible structures has at least one mutation;
     "trace" is exercised by test_analysis over synthetic span streams *)
  let covered =
    List.filter_map
      (fun (m : Mutate.mutation) ->
        Option.map
          (fun (e : Sanalysis.Diag.entry) -> e.Sanalysis.Diag.layer)
          (Sanalysis.Diag.find_entry m.Mutate.mcode))
      Mutate.all
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun layer ->
      if not (List.mem layer covered) then
        Alcotest.failf "no mutation targets the %s layer" layer)
    [ "memo"; "sharing"; "logical"; "plan"; "stages"; "cross-layer" ]

let () =
  Alcotest.run "mutation"
    [
      ( "corpus shape",
        [
          Alcotest.test_case "at least 20 mutations" `Quick test_corpus_size;
          Alcotest.test_case "names unique" `Quick test_names_unique;
          Alcotest.test_case "codes cataloged" `Quick test_codes_cataloged;
          Alcotest.test_case "every layer covered" `Quick test_layer_coverage;
        ] );
      ( "mutations",
        List.map
          (fun (m : Mutate.mutation) ->
            Alcotest.test_case m.Mutate.mname `Quick (test_mutation m))
          Mutate.all );
    ]
