(* Workload tests: the LS1/LS2 generators must reproduce the published
   structural statistics of Figure 6 exactly, and the random generator must
   always produce valid scripts. *)

let structural_stats name =
  let script, catalog = Thelpers.builtin name in
  let dag = Thelpers.bind ~catalog script in
  let memo =
    Smemo.Memo.of_dag ~catalog ~machines:25 (Thelpers.bind ~catalog script)
  in
  let shared = Cse.Spool.identify memo in
  ( Slogical.Dag.size dag,
    List.sort Int.compare
      (List.map (fun (s : Cse.Spool.shared) -> s.Cse.Spool.initial_consumers) shared)
  )

let test_ls1_statistics () =
  let ops, consumers = structural_stats "LS1" in
  Alcotest.(check int) "101 operators in the initial DAG" 101 ops;
  Alcotest.(check (list int)) "4 shared groups: 3x2 + 1x3 consumers"
    [ 2; 2; 2; 3 ] consumers

let test_ls2_statistics () =
  let ops, consumers = structural_stats "LS2" in
  Alcotest.(check int) "1034 operators in the initial DAG" 1034 ops;
  Alcotest.(check (list int)) "17 shared groups: 15x2 + 1x4 + 1x5"
    [ 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 4; 5 ]
    consumers

let test_generator_deterministic () =
  Alcotest.(check string) "stable output"
    (Sworkload.Large_gen.generate Sworkload.Large_gen.ls1_spec)
    (Sworkload.Large_gen.generate Sworkload.Large_gen.ls1_spec)

(* The registry's LS catalogs carry their spec's calibrated row counts; a
   script given as text reads every input at 50 M rows. *)
let test_registry_catalogs () =
  List.iter
    (fun (spec : Sworkload.Large_gen.spec) ->
      let w = Option.get (Sworkload.Builtin.find spec.name) in
      let file suffix = String.lowercase_ascii spec.name ^ suffix in
      let rows c =
        List.map
          (fun f -> (Option.get (Relalg.Catalog.find c (file f))).rows)
          [ "_log0"; "_fill0" ]
      in
      Alcotest.(check (list int)) spec.name
        [ spec.shared_rows; spec.filler_rows; 50_000_000; 50_000_000 ]
        (rows (w.catalog ()) @ rows (Sworkload.Builtin.text_catalog w.script)))
    [ Sworkload.Large_gen.ls1_spec; Sworkload.Large_gen.ls2_spec ]

let test_filler_sizes_exact () =
  List.iter
    (fun n ->
      let sizes = Sworkload.Large_gen.filler_sizes n in
      let total = List.fold_left (fun acc g -> acc + g + 2) 0 sizes in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) n total)
    [ 0; 3; 4; 9; 10; 11; 12; 37; 74; 100; 921 ]

let test_paper_scripts_bind () =
  List.iter
    (fun (name, s) ->
      match Thelpers.bind s with
      | _ -> ()
      | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e))
    Thelpers.small_builtins

let test_random_scripts_bind () =
  for seed = 1 to 60 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:12 () in
    let catalog = Sworkload.Random_gen.catalog () in
    match Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script) with
    | _ -> ()
    | exception e ->
        Alcotest.failf "seed %d: %s\n%s" seed (Printexc.to_string e) script
  done

let test_random_scripts_sometimes_share () =
  (* the random family must actually exercise the CSE machinery *)
  let with_sharing = ref 0 in
  for seed = 1 to 30 do
    let script = Sworkload.Random_gen.generate ~seed ~statements:12 () in
    let catalog = Sworkload.Random_gen.catalog () in
    let memo =
      Smemo.Memo.of_dag ~catalog ~machines:25
        (Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script))
    in
    if Cse.Spool.identify memo <> [] then incr with_sharing
  done;
  Alcotest.(check bool) "most random scripts contain sharing" true
    (!with_sharing > 15)

let () =
  Alcotest.run "workload"
    [
      ( "large scripts",
        [
          Alcotest.test_case "LS1 statistics" `Quick test_ls1_statistics;
          Alcotest.test_case "LS2 statistics" `Quick test_ls2_statistics;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "filler sizes" `Quick test_filler_sizes_exact;
          Alcotest.test_case "registry catalogs" `Quick test_registry_catalogs;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "paper scripts bind" `Quick test_paper_scripts_bind;
          Alcotest.test_case "random scripts bind" `Quick test_random_scripts_bind;
          Alcotest.test_case "random scripts share" `Quick
            test_random_scripts_sometimes_share;
        ] );
    ]
