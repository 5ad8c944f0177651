open Sphys

(* Sharing auditor.

   Algorithm 1's output is a contract with phase 2: a [shared] flag means
   "this group is a spool with several consumers, re-optimizable under
   pinned properties".  A stale flag (set on a non-spool group, or kept
   after consumers merged away) makes phase 2 enforce properties at places
   that cannot share anything; a double materialization in the final plan
   means the whole point of the exercise -- compute once, read many times
   -- was silently lost. *)

let candidates_diags ~shared (props : Reqprops.t list) =
  let loc = Diag.Group shared in
  if props = [] then
    [ Diag.make ~code:"SA012" ~loc "empty candidate property set" ]
  else
    let keys = List.map Reqprops.to_key props in
    let dupes =
      List.sort_uniq String.compare
        (List.filter
           (fun k -> List.length (List.filter (String.equal k) keys) > 1)
           keys)
    in
    List.map
      (fun k ->
        Diag.make ~code:"SA012" ~loc
          (Printf.sprintf "duplicated candidate property set %s" k))
      dupes

(* Shared-flag structure over the memo. *)
let flag_diags (memo : Smemo.Memo.t) =
  let live = Smemo.Memo.reachable memo in
  let parents = Smemo.Memo.parents memo in
  let diags = ref [] in
  Smemo.Memo.iter_groups memo (fun g ->
      if g.Smemo.Memo.shared && live.(g.Smemo.Memo.id) then begin
        let loc = Diag.Group g.Smemo.Memo.id in
        let is_spool (e : Smemo.Memo.mexpr) =
          match e.Smemo.Memo.mop with Slogical.Logop.Spool -> true | _ -> false
        in
        let es = g.Smemo.Memo.exprs in
        if es = [] || not (List.for_all is_spool es) then
          diags :=
            Diag.make ~code:"SA010" ~loc
              (Printf.sprintf "shared group holds [%s]"
                 (String.concat "; "
                    (List.map
                       (fun (e : Smemo.Memo.mexpr) ->
                         Slogical.Logop.short_name e.Smemo.Memo.mop)
                       es)))
            :: !diags;
        let consumers = List.length parents.(g.Smemo.Memo.id) in
        if consumers < 2 then
          diags :=
            Diag.make ~code:"SA011" ~loc
              (Printf.sprintf "only %d consumer(s)" consumers)
            :: !diags
      end);
  List.rev !diags

(* Spool materializations of the final plan: at most one distinct plan
   value per shared group ("spool-write exactly once"), and only groups
   marked shared are spooled.

   [degraded] marks a budget-truncated optimization: when phase 2 ran out
   of budget before pinning properties, the plan legitimately falls back
   to the phase-1 shape, one materialization per distinct property
   requirement (the Figure 8(a) baseline) -- SA013 is then a warning, not
   an error. *)
let plan_diags ?(degraded = false) ~(memo : Smemo.Memo.t) (plan : Plan.t) =
  let mats : (int, Plan.t list) Hashtbl.t = Hashtbl.create 8 in
  let rec collect (n : Plan.t) =
    (match n.Plan.op with
    | Physop.P_spool ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt mats n.Plan.group) in
        if not (List.exists (fun p -> p == n) prev) then
          Hashtbl.replace mats n.Plan.group (n :: prev)
    | _ -> ());
    List.iter collect n.Plan.children
  in
  collect plan;
  Hashtbl.fold
    (fun gid distinct acc ->
      let loc = Diag.Group gid in
      let acc =
        if List.length distinct > 1 then
          (if degraded then
             Diag.make ~severity:Diag.Warning ~code:"SA013" ~loc
               (Printf.sprintf
                  "%d distinct spool materializations (budget-truncated plan)"
                  (List.length distinct))
           else
             Diag.make ~code:"SA013" ~loc
               (Printf.sprintf "%d distinct spool materializations in the plan"
                  (List.length distinct)))
          :: acc
        else acc
      in
      let marked =
        gid >= 0
        && gid < Smemo.Memo.size memo
        && (Smemo.Memo.group memo gid).Smemo.Memo.shared
      in
      if marked then acc
      else
        Diag.make ~code:"SA014" ~loc
          "plan spools a group that is not marked shared"
        :: acc)
    mats []

let run ?(degraded = false) ?(candidates = []) ?plan (memo : Smemo.Memo.t) :
    Diag.t list =
  flag_diags memo
  @ List.concat_map
      (fun (shared, props) -> candidates_diags ~shared props)
      candidates
  @ (match plan with Some p -> plan_diags ~degraded ~memo p | None -> [])
