(** Logical exploration rules. The load-bearing rule is the local/global
    aggregation split:

    [GroupBy(keys; aggs)] ⇒ [GroupByGlobal(keys; combine(aggs))] over a new
    group holding [GroupByLocal(keys; aggs)]

    which yields the StreamAgg(Local) / exchange / StreamAgg(Global) plans
    of Figure 8. *)

(** Apply the rules to a group, adding equivalent expressions (and
    possibly new groups); returns the number of rules that fired.
    Idempotent per group: the rule set is the same in every optimization
    phase, so a group is explored once, by the first phase to reach it. *)
val explore : Smemo.Memo.t -> Smemo.Memo.group -> int
