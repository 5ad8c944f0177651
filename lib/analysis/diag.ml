(* The diagnostics framework of the static-analysis layer.

   A diagnostic is a finding of one analyzer pass: a stable code (SA0xx),
   a severity, a location inside the audited structure and a message.
   Codes are registered in the catalog below; [make] refuses unknown codes
   so passes cannot emit undocumented diagnostics, and loading the module
   refuses duplicate registrations so two passes cannot silently claim the
   same code. *)

type severity = Error | Warning | Info

type location =
  | Group of int
  | Winner of int * string
  | Node of int
  | Operator of string
  | Output of string
  | Whole

type t = { code : string; severity : severity; loc : location; message : string }

type entry = {
  ecode : string;
  eseverity : severity;
  layer : string;
  describe : string;
}

(* One entry per diagnostic the audit passes can emit.  Codes are stable:
   tests assert on them and users grep for them; never renumber.  The
   [layer] names the structure the pass audits, for [pp_catalog] and the
   DESIGN.md SA catalog. *)
let catalog =
  let e ecode eseverity layer describe = { ecode; eseverity; layer; describe } in
  [
    (* memo auditor *)
    e "SA001" Error "memo" "cycle in memo group references";
    e "SA002" Error "memo" "group expression incompatible with its group's schema";
    e "SA003" Error "memo" "memoized winner cost does not reproduce from the cost model";
    e "SA004" Error "memo" "memoized winner plan violates the plan checker";
    e "SA005" Error "memo" "memoized winner does not satisfy its recorded requirement";
    e "SA006" Error "memo" "infeasibility marker contradicted by a feasible winner";
    e "SA007" Warning "memo" "winner plan implements a different group";
    (* sharing auditor *)
    e "SA010" Error "sharing" "group marked shared is not a spool group";
    e "SA011" Warning "sharing" "shared group has fewer than two consumers";
    e "SA012" Error "sharing" "phase-2 candidate property set empty or duplicated";
    e "SA013" Error "sharing" "shared group materialized more than once in the plan";
    e "SA014" Warning "sharing" "plan spools a group that is not marked shared";
    (* logical-DAG lint *)
    e "SA020" Error "logical" "operator references a column missing from its children";
    e "SA021" Error "logical" "statistics are not sane (negative or NaN)";
    e "SA022" Warning "logical" "column NDV exceeds the estimated row count";
    (* plan-DAG lint *)
    e "SA030" Error "plan" "operator input requirements violated in the plan DAG";
    e "SA032" Error "plan" "operator cost is negative or not finite";
    e "SA033" Warning "plan" "spool node carries no memo group id";
    e "SA034" Error "plan" "cached region cost summary does not reproduce";
    (* stage-graph audit *)
    e "SA040" Error "stages" "stage graph is not topologically ordered";
    e "SA041" Error "stages" "stage interior diverges from its recorded dependencies";
    e "SA042" Warning "stages" "non-spool subtree shared across stage references";
    e "SA043" Error "stages" "OUTPUT or SEQUENCE outside the sink stage";
    e "SA044" Error "stages" "stage not reachable from the sink through dependencies";
    (* trace audit *)
    e "SA045" Error "trace" "executed stage missing from or duplicated in the trace";
    (* serve metrics audit *)
    e "SA046" Error "serve" "serve metrics snapshot inconsistent with engine accounting";
    (* cross-layer semantic equivalence (deep audit) *)
    e "SA050" Error "cross-layer" "physical output not equivalent to its logical output (canonical forms differ)";
    e "SA051" Error "cross-layer" "physical plan shape has no canonical logical interpretation";
    e "SA052" Error "cross-layer" "output column lineage diverges between logical and physical plans";
    e "SA053" Error "cross-layer" "enforcer or spool perturbs its input schema";
    e "SA054" Error "cross-layer" "spool consumer reads a column the shared producer does not provide";
    e "SA055" Error "cross-layer" "memo group expressions disagree on column lineage";
    e "SA056" Error "cross-layer" "cross-stage read not ordered by a dependency edge";
    e "SA057" Error "cross-layer" "concurrently schedulable stages write the same spool or cache cell";
    e "SA058" Error "cross-layer" "ORDER BY requirement not delivered by the physical output";
    (* round-pruning audit *)
    e "SA060" Error "pruning" "dominance-pruned candidate not subsumed by its recorded dominator";
  ]

(* Duplicate-code registration is a hard error at startup: the catalog is
   the single registry, and a second pass reusing a code would make test
   assertions and grep-ability meaningless. *)
let () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun { ecode; _ } ->
      if Hashtbl.mem seen ecode then
        invalid_arg
          (Printf.sprintf "Diag: duplicate catalog registration for code %s"
             ecode);
      Hashtbl.add seen ecode ())
    catalog

let find_entry code = List.find_opt (fun e -> e.ecode = code) catalog

let default_severity code =
  match find_entry code with
  | Some e -> e.eseverity
  | None -> invalid_arg (Printf.sprintf "Diag.make: unknown code %s" code)

let make ?severity ~code ~loc message =
  let default = default_severity code in
  { code; severity = Option.value ~default severity; loc; message }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let summary ds =
  List.filter_map
    (fun { ecode; _ } ->
      match List.length (List.filter (fun d -> d.code = ecode) ds) with
      | 0 -> None
      | n -> Some (ecode, n))
    catalog

let rank = function Error -> 2 | Warning -> 1 | Info -> 0

let worst ds =
  List.fold_left
    (fun acc d -> match acc with
      | Some s when rank s >= rank d.severity -> acc
      | _ -> Some d.severity)
    None ds

let exit_code ?(fail_on = Error) ds =
  if List.exists (fun d -> rank d.severity >= rank fail_on) ds then 1 else 0

let pp_severity ppf s =
  Fmt.string ppf
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let pp_location ppf = function
  | Group g -> Fmt.pf ppf "group %d" g
  | Winner (g, req) -> Fmt.pf ppf "group %d winner [%s]" g req
  | Node n -> Fmt.pf ppf "node %d" n
  | Operator op -> Fmt.pf ppf "operator %s" op
  | Output file -> Fmt.pf ppf "output %s" file
  | Whole -> Fmt.string ppf "whole structure"

let pp ppf d =
  Fmt.pf ppf "%s %a at %a: %s" d.code pp_severity d.severity pp_location d.loc
    d.message

let pp_report ppf ds =
  let ds = List.stable_sort (fun a b -> String.compare a.code b.code) ds in
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) ds;
  Fmt.pf ppf "%d error(s), %d warning(s)@."
    (List.length (errors ds))
    (List.length (warnings ds))

let pp_summary ppf ds =
  Fmt.pf ppf "lint-summary errors=%d warnings=%d"
    (List.length (errors ds))
    (List.length (warnings ds));
  List.iter (fun (code, n) -> Fmt.pf ppf " %s=%d" code n) (summary ds);
  Fmt.pf ppf "@."

let pp_catalog ppf () =
  List.iter
    (fun e ->
      let sev = Fmt.str "%a" pp_severity e.eseverity in
      Fmt.pf ppf "%s  %-7s %-11s %s@." e.ecode sev e.layer e.describe)
    catalog;
  Fmt.pf ppf "%d codes@." (List.length catalog)
