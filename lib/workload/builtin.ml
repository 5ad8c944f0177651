(* The builtin workloads: Figure 6's S1-S4, the Section VIII-A pair (IND)
   and the large scripts LS1/LS2, each with the catalog the evaluation
   runs it under. *)

type t = { name : string; script : string; catalog : unit -> Relalg.Catalog.t }

let paper name script = { name; script; catalog = Relalg.Catalog.default }

let large (spec : Large_gen.spec) =
  let script = Large_gen.generate spec in
  let catalog () =
    let c = Relalg.Catalog.default () in
    Large_gen.register_files ~shared_rows:spec.Large_gen.shared_rows
      ~filler_rows:spec.Large_gen.filler_rows c script;
    c
  in
  { name = spec.Large_gen.name; script; catalog }

let small =
  [
    paper "S1" Paper_scripts.s1;
    paper "S2" Paper_scripts.s2;
    paper "S3" Paper_scripts.s3;
    paper "S4" Paper_scripts.s4;
    paper "IND" Paper_scripts.independent_pair;
  ]

let all = small @ [ large Large_gen.ls1_spec; large Large_gen.ls2_spec ]

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
