(* Shared helpers for the test suites. *)

let default_catalog () = Relalg.Catalog.default ()

(* The registry's builtins with no Section IX budget (S1-S4 and IND) as
   (name, script) pairs; their catalog is the default one. *)
let small_builtins =
  List.filter_map
    (fun (w : Sworkload.Builtin.t) ->
      if w.budget_seconds = None then Some (w.name, w.script) else None)
    Sworkload.Builtin.all

(* A builtin's script and a fresh catalog, from the registry. *)
let builtin name =
  let w = Option.get (Sworkload.Builtin.find name) in
  (w.Sworkload.Builtin.script, w.catalog ())

(* Parse and bind a script against the default catalog. *)
let bind ?(catalog = default_catalog ()) script =
  Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script)

let memo_of ?(catalog = default_catalog ()) ?(machines = 25) script =
  Smemo.Memo.of_dag ~catalog ~machines (bind ~catalog script)

(* Assert a plan passes the independent validity checker. *)
let assert_valid_plan name plan =
  match Sphys.Plan_check.validate plan with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "%s: invalid plan:\n%s" name
        (Sphys.Plan_check.violations_to_string errs)

(* Run the full pipeline on a script with the default catalog.  Tests run
   the full static-analysis audit on every optimized plan; pass
   [~audit:false] to skip. *)
let pipeline ?(audit = true) ?config ?budget ?(catalog = default_catalog ())
    script =
  let r = Cse.Pipeline.run ?config ?budget ~catalog script in
  if audit then
    Sanalysis.Audit.assert_clean ~cluster:Scost.Cluster.default ~catalog r;
  r

(* A table as text: column names, then one line per row in order. *)
let table_string (t : Relalg.Table.t) =
  String.concat "\n"
    (String.concat "," (Relalg.Schema.names t.Relalg.Table.schema)
    :: List.map
         (fun row ->
           String.concat " | "
             (Array.to_list (Array.map Relalg.Value.to_string row)))
         t.Relalg.Table.rows)

(* Operators of a plan, leaves first, a shared subtree once per reference. *)
let operators plan =
  List.rev (Sphys.Plan.fold (fun acc n -> n.Sphys.Plan.op :: acc) [] plan)

(* Operator multiset of a plan, as short names. *)
let op_names plan =
  List.map Sphys.Physop.short_name (operators plan)
  |> List.sort String.compare

let count_op name plan =
  List.length (List.filter (String.equal name) (op_names plan))

(* Count operators over physically-distinct nodes: a shared (spool) subtree
   referenced several times is walked once. *)
let distinct_count_op name plan =
  let seen = ref [] in
  let count = ref 0 in
  let rec go (n : Sphys.Plan.t) =
    if not (List.exists (fun p -> p == n) !seen) then begin
      seen := n :: !seen;
      if Sphys.Physop.short_name n.Sphys.Plan.op = name then incr count;
      List.iter go n.Sphys.Plan.children
    end
  in
  go plan;
  !count

(* The assignments [Rounds.search] probes, in order, each answered
   [cost_of]; the budget runs out after [limit] probes. *)
let rounds ?(limit = max_int) ?(cost_of = fun _ -> 1.0) classes =
  let seen = ref [] in
  Cse.Rounds.search classes ~incumbent:infinity
    ~exhausted:(fun () -> List.length !seen >= limit)
    ~probe:(fun a ~bound:_ ->
      seen := a :: !seen;
      cost_of a);
  List.rev !seen

let colset = Relalg.Colset.of_list

(* Alcotest testables *)
let colset_t = Alcotest.testable Relalg.Colset.pp Relalg.Colset.equal
let value_t = Alcotest.testable Relalg.Value.pp Relalg.Value.equal

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
