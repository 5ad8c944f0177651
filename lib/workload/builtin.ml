(* The builtin workloads: Figure 6's S1-S4, the Section VIII-A pair (IND)
   and the large scripts LS1/LS2, each with the catalog and the Section IX
   budget the evaluation runs it under. *)

type t = {
  name : string;
  script : string;
  catalog : unit -> Relalg.Catalog.t;
  budget_seconds : float option;
}

let small name script =
  { name; script; catalog = Relalg.Catalog.default; budget_seconds = None }

let large (spec : Large_gen.spec) budget =
  let script = Large_gen.generate spec in
  let catalog () =
    let c = Relalg.Catalog.default () in
    Large_gen.register_files ~shared_rows:spec.Large_gen.shared_rows
      ~filler_rows:spec.Large_gen.filler_rows c script;
    c
  in
  { name = spec.Large_gen.name; script; catalog; budget_seconds = Some budget }

let all =
  [
    small "S1" Paper_scripts.s1;
    small "S2" Paper_scripts.s2;
    small "S3" Paper_scripts.s3;
    small "S4" Paper_scripts.s4;
    small "IND" Paper_scripts.independent_pair;
    large Large_gen.ls1_spec 30.0;
    large Large_gen.ls2_spec 60.0;
  ]

let find name =
  let name = String.uppercase_ascii name in
  List.find_opt (fun w -> w.name = name) all

let names =
  match List.rev_map (fun w -> w.name) all with
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | [] -> ""

(* Row count of every generated-style input of a script given as text *)
let text_rows = 50_000_000

let text_catalog script =
  let c = Relalg.Catalog.default () in
  Large_gen.register_files ~shared_rows:text_rows ~filler_rows:text_rows c
    script;
  c
