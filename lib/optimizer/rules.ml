(* Logical exploration rules.

   The rule set is small but it is the one that matters for the paper's
   plan space:

   - [gb_split]: GroupBy(keys; aggs) => GroupByGlobal(keys; combine(aggs))
     over a new group holding GroupByLocal(keys; aggs).  This is the
     local/global aggregation rewrite that produces the
     StreamAgg(Local) / exchange / StreamAgg(Global) plans of Figure 8.

   Join commutation is intentionally not a logical rule here: it would
   permute the group's output column order (the row layout is positional);
   build/probe side selection is a physical concern instead. *)

open Relalg

(* Apply all rules to group [g], adding new expressions (and possibly new
   groups) to the memo; returns how many rules fired.  Idempotent per
   group: the rule set does not depend on the optimization phase, so the
   first phase to reach a group explores it for every later one. *)
let explore (memo : Smemo.Memo.t) (g : Smemo.Memo.group) =
  if g.Smemo.Memo.explored then 0
  else begin
    let fired = ref 0 in
    g.Smemo.Memo.explored <- true;
    let originals = g.Smemo.Memo.exprs in
    List.iter
      (fun (e : Smemo.Memo.mexpr) ->
        match e.Smemo.Memo.mop with
        | Slogical.Logop.Group_by { keys; aggs }
          when not
                 (List.exists
                    (fun (e' : Smemo.Memo.mexpr) ->
                      match e'.Smemo.Memo.mop with
                      | Slogical.Logop.Group_by_global _ -> true
                      | _ -> false)
                    g.Smemo.Memo.exprs) ->
            incr fired;
            if Sobs.Trace.enabled () then
              Sobs.Trace.instant ~pid:Sobs.Trace.pid_phase1
                ~args:
                  [
                    ("rule", Sobs.Trace.Str "gb_split");
                    ("group", Sobs.Trace.Int g.Smemo.Memo.id);
                  ]
                "rule.fired";
            let child = List.hd e.Smemo.Memo.children in
            let child_schema = (Smemo.Memo.group memo child).Smemo.Memo.schema in
            let local_op = Slogical.Logop.Group_by_local { keys; aggs } in
            let local_schema =
              Slogical.Logop.derive_schema local_op [ child_schema ]
            in
            let local_group =
              Smemo.Memo.add_group memo
                { Smemo.Memo.mop = local_op; children = [ child ] }
                local_schema
            in
            let global_aggs = List.map Agg.global_combinator aggs in
            Smemo.Memo.add_expr g
              {
                Smemo.Memo.mop =
                  Slogical.Logop.Group_by_global { keys; aggs = global_aggs };
                children = [ local_group.Smemo.Memo.id ];
              }
        | _ -> ())
      originals;
    !fired
  end
