(** Logical exploration rules. The load-bearing rule is the local/global
    aggregation split:

    [GroupBy(keys; aggs)] ⇒ [GroupByGlobal(keys; combine(aggs))] over a new
    group holding [GroupByLocal(keys; aggs)]

    which yields the StreamAgg(Local) / exchange / StreamAgg(Global) plans
    of Figure 8. *)

(** Apply the rules of [phase] to a group, adding equivalent expressions
    (and possibly new groups); returns the number of rules that fired.
    Idempotent per group and phase; never duplicates the aggregation
    split across phases. *)
val explore : Smemo.Memo.t -> Smemo.Memo.group -> phase:int -> int
