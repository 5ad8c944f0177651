open Sphys
open Sanalysis
module Memo = Smemo.Memo
module Logop = Slogical.Logop
module Stage = Sexec.Stage

(* Mutation harness for the analyzers (the audit-of-the-audit).

   Every auditor in this layer claims to catch a specific class of silent
   corruption.  This corpus backs each claim with a falsifiable
   experiment: run the full pipeline on a real workload, audit (must be
   clean), inject one targeted corruption into a memo, a logical DAG, a
   physical plan, a sharing structure or a stage graph, audit again and
   demand the corruption's own SA code.  A mutation whose baseline
   already carries the code is vacuous; one whose corruption goes
   unreported is a hole in the analyzer.  [verify] enforces all three
   conditions, so [test/test_mutation.ml] reduces to iterating [all]. *)

type mutation = {
  mname : string;  (** unique label, [SAxxx what-was-corrupted] *)
  mcode : string;  (** the diagnostic expected to catch the corruption *)
  mrun : unit -> Diag.t list * Diag.t list;
      (** run the experiment: (baseline diags, post-corruption diags) *)
}

(* The S1 workload of the paper (two aggregations sharing one
   pre-aggregation), embedded so this library stays independent of the
   workload generators. *)
let script =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
|}

let fresh () =
  let catalog = Relalg.Catalog.default () in
  let cluster = Scost.Cluster.default in
  (catalog, cluster, Cse.Pipeline.run ~cluster ~catalog script)

(* [build] returns the audit closure and the corruption; [mrun] audits
   around the corruption. *)
let mutation mname mcode build =
  {
    mname;
    mcode;
    mrun =
      (fun () ->
        let audit, corrupt = build () in
        let clean = audit () in
        corrupt ();
        (clean, audit ()));
  }

(* ---- shared lookup helpers -------------------------------------------- *)

let die fmt = Printf.ksprintf failwith fmt

let find_plan pred plan =
  Plan.fold
    (fun acc n ->
      match acc with Some _ -> acc | None -> if pred n then Some n else None)
    None plan

let spool_of plan =
  match
    find_plan
      (fun n -> match n.Plan.op with Physop.P_spool -> true | _ -> false)
      plan
  with
  | Some s -> s
  | None -> die "mutation harness: no spool in the CSE plan"

(* A winner with a recorded plan, with its table key. *)
let some_winner (g : Memo.group) =
  match
    Hashtbl.fold
      (fun k (w : Memo.winner) acc ->
        match (acc, w.Memo.wplan) with None, Some p -> Some (k, w, p) | _ -> acc)
      g.Memo.winners None
  with
  | Some x -> x
  | None -> die "mutation harness: group %d has no winner with a plan" g.Memo.id

(* Rebuild a plan with [f]-selected nodes replaced, preserving physical
   identity of untouched subtrees so spool sharing survives the rewrite.
   Plans rebuilt over one [mapped] table also share their rewritten
   nodes with each other. *)
let map_plan ?(mapped = Plan.Tbl.create 64) f plan =
  let rec go (n : Plan.t) =
    match Plan.Tbl.find_opt mapped n with
    | Some n' -> n'
    | None ->
        let n' =
          match f n with
          | Some repl -> repl
          | None ->
              let children = List.map go n.Plan.children in
              if List.for_all2 ( == ) children n.Plan.children then n
              else { n with Plan.children }
        in
        Plan.Tbl.add mapped n n';
        n'
  in
  go plan

(* Replace the first (top-down) node satisfying [pred]. *)
let corrupt_first pred repl plan =
  let hit = ref false in
  let plan' =
    map_plan
      (fun n ->
        if !hit || not (pred n) then None
        else begin
          hit := true;
          Some (repl n)
        end)
      plan
  in
  if not !hit then die "mutation harness: no plan node matched";
  plan'

(* First reachable memo group holding a [Group_by] expression. *)
let group_by_group memo =
  let live = Memo.reachable memo in
  let found = ref None in
  Memo.iter_groups memo (fun g ->
      if Option.is_none !found && live.(g.Memo.id) then
        List.iter
          (fun (e : Memo.mexpr) ->
            match e.Memo.mop with
            | Logop.Group_by { keys; aggs }
              when Option.is_none !found && keys <> [] && aggs <> [] ->
                found := Some (g, e, keys, aggs)
            | _ -> ())
          g.Memo.exprs);
  match !found with
  | Some x -> x
  | None -> die "mutation harness: no reachable GROUP BY group"

(* First DAG node satisfying [pred], by index. *)
let dag_node pred (dag : Slogical.Dag.t) =
  let idx = ref (-1) in
  Array.iteri
    (fun i (n : Slogical.Dag.node) ->
      if !idx < 0 && pred n then idx := i)
    dag.Slogical.Dag.nodes;
  if !idx < 0 then die "mutation harness: no DAG node matched";
  !idx

let is_output (n : Slogical.Dag.node) =
  match n.Slogical.Dag.op with Logop.Output _ -> true | _ -> false

let is_group_by (n : Slogical.Dag.node) =
  match n.Slogical.Dag.op with Logop.Group_by _ -> true | _ -> false

(* ---- the corpus -------------------------------------------------------- *)

(* Memo layer: structural invariants of groups, expressions and memoized
   winners (SA001-SA007), plus the statistics each group carries
   (SA021/SA022). *)

(* [corrupt] tampers with the memo of a fresh pipeline run and returns
   the winners that must each report [ccode]; for most corruptions one
   report anywhere suffices ([]). *)
type memo_corruption = {
  cname : string;
  ccode : string;
  corrupt : Cse.Pipeline.report -> Memo.t -> Diag.location list;
}

let memo_corruption cname ccode f =
  { cname; ccode; corrupt = (fun r memo -> f r memo; []) }

(* The memo audit around the corruption.  A report of the code that
   misses one of the affected winners is withheld, so [verify] counts
   the corruption as escaped. *)
let memo_mutation c =
  mutation c.cname c.ccode (fun () ->
      let _, cluster, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      let affected = ref [] in
      let audit () =
        let diags = Memo_audit.run ~cluster memo in
        let reported loc =
          List.exists
            (fun (d : Diag.t) -> d.Diag.code = c.ccode && d.Diag.loc = loc)
            diags
        in
        if List.for_all reported !affected then diags
        else List.filter (fun (d : Diag.t) -> d.Diag.code <> c.ccode) diags
      in
      (audit, fun () -> affected := c.corrupt r memo))

let sa001 =
  memo_corruption "SA001 spool expression referencing its own group" "SA001"
    (fun r memo ->
      let spool = (List.hd r.Cse.Pipeline.shared).Cse.Spool.spool in
      (Memo.group memo spool).Memo.exprs <-
        [ { Memo.mop = Logop.Spool; children = [ spool ] } ])

let sa002 =
  memo_corruption "SA002 expression breaking its group's schema" "SA002"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let child = List.hd (Memo.group_children root) in
      root.Memo.exprs <-
        root.Memo.exprs
        @ [ { Memo.mop = Logop.Union_all; children = [ child ] } ])

let sa003 =
  memo_corruption "SA003 winner operator cost off by 1e6" "SA003"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let key, w, p = some_winner root in
      Hashtbl.replace root.Memo.winners key
        {
          w with
          Memo.wplan = Some { p with Plan.op_cost = p.Plan.op_cost +. 1.0e6 };
        })

(* A parent group's winner is built over its children's winners, so one
   plan node is shared physically by the winners of several groups.
   Corrupt the node reached by the most groups, once, under every winner
   that reaches it: each of those winners must report SA003, not only
   the first one audited. *)
let sa003_shared =
  {
    cname = "SA003 op cost of a plan node shared by several groups' winners";
    ccode = "SA003";
    corrupt =
      (fun _ memo ->
        let live = Memo.reachable memo in
        let winners = ref [] in
        Memo.iter_groups memo (fun g ->
            if live.(g.Memo.id) then
              Hashtbl.iter
                (fun key (w : Memo.winner) ->
                  match w.Memo.wplan with
                  | Some p -> winners := (g, key, w, p) :: !winners
                  | None -> ())
                g.Memo.winners);
        let winners = List.rev !winners in
        (* the groups whose winners reach each distinct node *)
        let groups = Plan.Tbl.create 64 in
        List.iter
          (fun ((g : Memo.group), _, _, p) ->
            let rec go (n : Plan.t) =
              match Plan.Tbl.find_opt groups n with
              | Some gs when List.mem g.Memo.id gs -> ()
              | found ->
                  Plan.Tbl.replace groups n
                    (g.Memo.id :: Option.value ~default:[] found);
                  List.iter go n.Plan.children
            in
            go p)
          winners;
        (* the first most-reached node in walk order over the winners, so
           the victim depends on the memo alone, not on table layout *)
        let victim = ref None and reach = ref 0 in
        Plan.iter_distinct
          (fun n ->
            let k = List.length (Plan.Tbl.find groups n) in
            if k > !reach then (
              victim := Some n;
              reach := k))
          (List.map (fun (_, _, _, p) -> p) winners);
        let victim =
          match !victim with
          | Some n when !reach >= 2 -> n
          | _ -> die "mutation harness: no plan node shared across groups"
        in
        let bad = { victim with Plan.op_cost = victim.Plan.op_cost +. 1.0e6 } in
        let mapped = Plan.Tbl.create 64 in
        List.filter_map
          (fun ((g : Memo.group), key, (w : Memo.winner), p) ->
            let p' =
              map_plan ~mapped (fun n -> if n == victim then Some bad else None) p
            in
            if p' == p then None
            else begin
              Hashtbl.replace g.Memo.winners key { w with Memo.wplan = Some p' };
              Some (Memo_audit.winner_loc g w)
            end)
          winners);
  }

let sa004 =
  memo_corruption "SA004 winner plan with fabricated sort property" "SA004"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let key, w, p = some_winner root in
      let props =
        { p.Plan.props with Props.sort = [ ("__corrupt", Sortorder.Desc) ] }
      in
      Hashtbl.replace root.Memo.winners key
        { w with Memo.wplan = Some { p with Plan.props = props } })

let sa005 =
  memo_corruption "SA005 winner under an unsatisfiable requirement" "SA005"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let key, w, _ = some_winner root in
      Hashtbl.replace root.Memo.winners key
        {
          w with
          Memo.wreq =
            Reqprops.make
              (Reqprops.Hash_exact (Relalg.Colset.of_list [ "__nope" ]))
              [];
        })

let sa006 =
  memo_corruption "SA006 infeasibility marker next to a feasible winner" "SA006"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let _, w, _ = some_winner root in
      Hashtbl.replace root.Memo.winners (-1)
        {
          Memo.wphase = w.Memo.wphase;
          wreq = Reqprops.none;
          wenforce = w.Memo.wenforce;
          wplan = None;
        })

let sa007 =
  memo_corruption "SA007 winner plan rooted at the wrong group" "SA007"
    (fun _ memo ->
      let root = Memo.root_group memo in
      let key, w, p = some_winner root in
      Hashtbl.replace root.Memo.winners key
        { w with Memo.wplan = Some { p with Plan.group = p.Plan.group + 1 } })

let sa021 =
  memo_corruption "SA021 NaN row estimate on a memo group" "SA021"
    (fun _ memo ->
      let g = Memo.root_group memo in
      g.Memo.stats <- { g.Memo.stats with Slogical.Stats.rows = Float.nan })

let sa022 =
  memo_corruption "SA022 column NDV far above the row estimate" "SA022"
    (fun _ memo ->
      let g = Memo.root_group memo in
      g.Memo.stats <-
        {
          Slogical.Stats.rows = 10.0;
          row_bytes = 8.0;
          ndvs = [ ("A", 1000.0) ];
        })

(* Sharing layer: the spool bookkeeping of Algorithm 1 and the phase-2
   candidate property sets (SA010-SA014). *)

let sa010 =
  mutation "SA010 non-spool group marked shared" "SA010" (fun () ->
      let _, _, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      ( (fun () -> Sharing_audit.run memo),
        fun () ->
          let under = (List.hd r.Cse.Pipeline.shared).Cse.Spool.under in
          (Memo.group memo under).Memo.shared <- true ))

let sa011 =
  mutation "SA011 shared spool stripped to one consumer" "SA011" (fun () ->
      let _, _, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      ( (fun () -> Sharing_audit.run memo),
        fun () ->
          let s = List.hd r.Cse.Pipeline.shared in
          let spool = s.Cse.Spool.spool and under = s.Cse.Spool.under in
          let rewire consumer =
            let cg = Memo.group memo consumer in
            cg.Memo.exprs <-
              List.map
                (fun (e : Memo.mexpr) ->
                  {
                    e with
                    Memo.children =
                      List.map
                        (fun c -> if c = spool then under else c)
                        e.Memo.children;
                  })
                cg.Memo.exprs
          in
          match (Memo.parents memo).(spool) with
          | [] -> die "mutation harness: spool has no consumers"
          | _keep :: rest -> List.iter rewire rest ))

let sa012 =
  mutation "SA012 duplicated phase-2 candidate property set" "SA012" (fun () ->
      let cands =
        ref
          [
            Reqprops.make (Reqprops.Hash_exact (Relalg.Colset.of_list [ "B" ])) [];
            Reqprops.make (Reqprops.Hash_exact (Relalg.Colset.of_list [ "C" ])) [];
          ]
      in
      ( (fun () -> Sharing_audit.candidates_diags ~shared:7 !cands),
        fun () -> cands := [ List.hd !cands; List.hd !cands ] ))

let sa013 =
  mutation "SA013 shared group materialized twice in one plan" "SA013"
    (fun () ->
      let _, _, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      let plan = ref r.Cse.Pipeline.cse_plan in
      ( (fun () -> Sharing_audit.plan_diags ~memo !plan),
        fun () ->
          let s = spool_of !plan in
          let clone = { s with Plan.op_cost = s.Plan.op_cost } in
          plan :=
            Plan.make ~op:Physop.P_sequence ~children:[ s; clone ] ~group:(-1)
              ~schema:s.Plan.schema ~stats:s.Plan.stats ~op_cost:0.0 ()))

let sa014 =
  mutation "SA014 plan spooling a group not marked shared" "SA014" (fun () ->
      let _, _, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      let plan = ref r.Cse.Pipeline.cse_plan in
      ( (fun () -> Sharing_audit.plan_diags ~memo !plan),
        fun () ->
          let under = (List.hd r.Cse.Pipeline.shared).Cse.Spool.under in
          plan := { (spool_of !plan) with Plan.group = under } ))

(* Logical layer: the bound DAG the whole optimization starts from
   (SA020). *)

let sa020 =
  mutation "SA020 aggregate over a missing column" "SA020" (fun () ->
      let catalog, cluster, r = fresh () in
      let dag = r.Cse.Pipeline.dag in
      ( (fun () ->
          Logical_audit.run ~catalog
            ~machines:cluster.Scost.Cluster.machines dag),
        fun () ->
          let i = dag_node is_group_by dag in
          let n = dag.Slogical.Dag.nodes.(i) in
          match n.Slogical.Dag.op with
          | Logop.Group_by { keys; aggs } ->
              let aggs =
                List.map
                  (fun (a : Relalg.Agg.t) ->
                    { a with Relalg.Agg.arg = Relalg.Expr.Col "__nope" })
                  aggs
              in
              dag.Slogical.Dag.nodes.(i) <-
                { n with Slogical.Dag.op = Logop.Group_by { keys; aggs } }
          | _ -> assert false ))

(* Plan layer: the chosen physical plans' cost and shape caches
   (SA032-SA034). *)

let plan_mutation mname mcode pick corrupt =
  mutation mname mcode (fun () ->
      let _, _, r = fresh () in
      let plan = ref (pick r) in
      ((fun () -> Plan_audit.run !plan), fun () -> plan := corrupt r !plan))

let sa032 =
  plan_mutation "SA032 negative operator cost" "SA032"
    (fun r -> r.Cse.Pipeline.conventional_plan)
    (fun _ p -> { p with Plan.op_cost = -5.0 })

let sa033 =
  plan_mutation "SA033 spool with no memo group id" "SA033"
    (fun r -> r.Cse.Pipeline.cse_plan)
    (fun _ p -> { (spool_of p) with Plan.group = -1 })

let sa034 =
  plan_mutation "SA034 stale region cost summary" "SA034"
    (fun r -> r.Cse.Pipeline.cse_plan)
    (fun _ p -> { p with Plan.sbase = p.Plan.sbase +. 1.0e6 })

(* Stage layer: the compiled stage graph the executor trusts blindly
   (SA040-SA044). *)

let stage_mutation mname mcode corrupt =
  mutation mname mcode (fun () ->
      let _, _, r = fresh () in
      let plan = r.Cse.Pipeline.cse_plan in
      let g = ref (Stage.build plan) in
      ( (fun () -> Stage_audit.check_graph plan !g),
        fun () -> g := corrupt plan !g ))

let sa040 =
  stage_mutation "SA040 sink demoted to stage 0" "SA040" (fun _ g ->
      { g with Stage.sink = 0 })

let sa041 =
  stage_mutation "SA041 recorded stage dependencies erased" "SA041"
    (fun _ g ->
      {
        g with
        Stage.stages =
          Array.map
            (fun (st : Stage.stage) ->
              if st.Stage.deps = [] then st else { st with Stage.deps = [] })
            g.Stage.stages;
      })

let sa043 =
  stage_mutation "SA043 OUTPUT smuggled into a non-sink stage" "SA043"
    (fun _ g ->
      let stages =
        Array.map
          (fun (st : Stage.stage) ->
            if st.Stage.id = g.Stage.sink then st
            else
              {
                st with
                Stage.root =
                  Plan.make
                    ~op:(Physop.P_output { file = "__mutant.out" })
                    ~children:[ st.Stage.root ] ~group:(-1)
                    ~schema:st.Stage.root.Plan.schema
                    ~stats:st.Stage.root.Plan.stats ~op_cost:0.0 ();
              })
          g.Stage.stages
      in
      { g with Stage.stages })

let sa044 =
  stage_mutation "SA044 sink severed from its dependencies" "SA044"
    (fun _ g ->
      {
        g with
        Stage.stages =
          Array.map
            (fun (st : Stage.stage) ->
              if st.Stage.id = g.Stage.sink then { st with Stage.deps = [] }
              else st)
            g.Stage.stages;
      })

(* Cross-layer equivalence (SA050-SA055, SA058): corrupt either side of
   the logical/physical correspondence and expect the comparison to
   break. *)

let equiv_mutation mname mcode corrupt =
  mutation mname mcode (fun () ->
      let _, _, r = fresh () in
      let dag = r.Cse.Pipeline.dag in
      let plan = ref r.Cse.Pipeline.cse_plan in
      ( (fun () -> Equiv_audit.run ~dag [ !plan ]),
        fun () -> plan := corrupt r dag !plan ))

let sa050_file =
  equiv_mutation "SA050 logical output renamed to another file" "SA050"
    (fun _ dag plan ->
      let i = dag_node is_output dag in
      let n = dag.Slogical.Dag.nodes.(i) in
      (match n.Slogical.Dag.op with
      | Logop.Output { file = _; order } ->
          dag.Slogical.Dag.nodes.(i) <-
            {
              n with
              Slogical.Dag.op = Logop.Output { file = "__mutant.out"; order };
            }
      | _ -> assert false);
      plan)

let sa050_agg =
  equiv_mutation "SA050 logical SUM silently turned into MIN" "SA050"
    (fun _ dag plan ->
      let i = dag_node is_group_by dag in
      let n = dag.Slogical.Dag.nodes.(i) in
      (match n.Slogical.Dag.op with
      | Logop.Group_by { keys; aggs } ->
          let aggs =
            List.map
              (fun (a : Relalg.Agg.t) -> { a with Relalg.Agg.func = Relalg.Agg.Min })
              aggs
          in
          dag.Slogical.Dag.nodes.(i) <-
            { n with Slogical.Dag.op = Logop.Group_by { keys; aggs } }
      | _ -> assert false);
      plan)

let sa051 =
  equiv_mutation "SA051 aggregation demoted to an orphan local step" "SA051"
    (fun _ _ plan ->
      corrupt_first
        (fun n ->
          match n.Plan.op with
          | Physop.P_stream_agg { scope = Physop.Full | Physop.Global; _ } ->
              true
          | _ -> false)
        (fun n ->
          let op =
            match n.Plan.op with
            | Physop.P_stream_agg { keys; aggs; _ } ->
                Physop.P_stream_agg { keys; aggs; scope = Physop.Local }
            | op -> op
          in
          { n with Plan.op = op })
        plan)

let sa052 =
  equiv_mutation "SA052 physical aggregate re-aimed at a grouping key" "SA052"
    (fun _ _ plan ->
      corrupt_first
        (fun n ->
          match n.Plan.op with
          | Physop.P_stream_agg { keys; aggs; scope = Physop.Local | Physop.Full }
            ->
              keys <> [] && aggs <> []
          | _ -> false)
        (fun n ->
          let redirect keys (aggs : Relalg.Agg.t list) =
            List.map
              (fun (a : Relalg.Agg.t) ->
                { a with Relalg.Agg.arg = Relalg.Expr.Col (List.hd keys) })
              aggs
          in
          let op =
            match n.Plan.op with
            | Physop.P_stream_agg { keys; aggs; scope } ->
                Physop.P_stream_agg { keys; aggs = redirect keys aggs; scope }
            | op -> op
          in
          { n with Plan.op = op })
        plan)

let sa053 =
  equiv_mutation "SA053 enforcer dropping a schema column" "SA053"
    (fun _ _ plan ->
      corrupt_first
        (fun n ->
          Physop.is_enforcer n.Plan.op && List.length n.Plan.schema > 1)
        (fun n -> { n with Plan.schema = List.tl n.Plan.schema })
        plan)

let sa054 =
  equiv_mutation "SA054 spool producing none of the consumed columns" "SA054"
    (fun _ _ plan ->
      corrupt_first
        (fun n ->
          match n.Plan.op with Physop.P_spool -> true | _ -> false)
        (fun n -> { n with Plan.schema = [] })
        plan)

let sa055 =
  mutation "SA055 memo expression with divergent lineage" "SA055" (fun () ->
      let _, _, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      ( (fun () -> Lineage.of_memo (Lineage.create ()) memo),
        fun () ->
          let g, e, keys, aggs = group_by_group memo in
          let twisted =
            {
              (List.hd aggs) with
              Relalg.Agg.arg = Relalg.Expr.Col (List.hd keys);
            }
          in
          g.Memo.exprs <-
            g.Memo.exprs
            @ [
                {
                  Memo.mop = Logop.Group_by { keys; aggs = [ twisted ] };
                  children = e.Memo.children;
                };
              ] ))

let sa058 =
  equiv_mutation "SA058 ORDER BY added with no delivering plan" "SA058"
    (fun _ dag plan ->
      let i = dag_node is_output dag in
      let n = dag.Slogical.Dag.nodes.(i) in
      (match n.Slogical.Dag.op with
      | Logop.Output { file; order = _ } ->
          let col = List.hd (Relalg.Schema.names n.Slogical.Dag.schema) in
          dag.Slogical.Dag.nodes.(i) <-
            {
              n with
              Slogical.Dag.op = Logop.Output { file; order = [ (col, false) ] };
            }
      | _ -> assert false);
      plan)

(* Cross-layer interference (SA056/SA057): corrupt the stage graph's
   ordering edges and spool-cell ownership. *)

let race_mutation mname mcode corrupt =
  mutation mname mcode (fun () ->
      let _, _, r = fresh () in
      let g = ref (Stage.build r.Cse.Pipeline.cse_plan) in
      ((fun () -> Race_audit.check_graph !g), fun () -> g := corrupt !g))

let sa056 =
  race_mutation "SA056 cross-stage read with its ordering edge removed"
    "SA056" (fun g ->
      let victim =
        match
          Array.to_seq g.Stage.stages
          |> Seq.filter (fun (st : Stage.stage) -> st.Stage.deps <> [])
          |> Seq.uncons
        with
        | Some (st, _) -> st.Stage.id
        | None -> die "mutation harness: no stage with dependencies"
      in
      {
        g with
        Stage.stages =
          Array.map
            (fun (st : Stage.stage) ->
              if st.Stage.id = victim then
                { st with Stage.deps = List.tl st.Stage.deps }
              else st)
            g.Stage.stages;
      })

let sa057 =
  race_mutation "SA057 second unordered stage over one spool cell" "SA057"
    (fun g ->
      let spool_stage =
        match
          Array.to_seq g.Stage.stages
          |> Seq.filter (fun (st : Stage.stage) ->
                 match st.Stage.root.Plan.op with
                 | Physop.P_spool -> true
                 | _ -> false)
          |> Seq.uncons
        with
        | Some (st, _) -> st
        | None -> die "mutation harness: no spool stage"
      in
      let dup = { spool_stage with Stage.id = Array.length g.Stage.stages } in
      { g with Stage.stages = Array.append g.Stage.stages [| dup |] })

let memo_corruptions =
  [ sa001; sa002; sa003; sa003_shared; sa004; sa005; sa006; sa007; sa021; sa022 ]

(* catalog order of the expected codes *)
let all =
  List.stable_sort
    (fun a b -> String.compare a.mcode b.mcode)
    (List.map memo_mutation memo_corruptions
    @ [
    sa010;
    sa011;
    sa012;
    sa013;
    sa014;
    sa020;
    sa032;
    sa033;
    sa034;
    sa040;
    sa041;
    sa043;
    sa044;
    sa050_file;
    sa050_agg;
    sa051;
    sa052;
    sa053;
    sa054;
    sa055;
    sa056;
    sa057;
    sa058;
  ])

let corrupted_memos () =
  List.map
    (fun c ->
      let _, cluster, r = fresh () in
      let memo = r.Cse.Pipeline.memo in
      ignore (c.corrupt r memo);
      (c.cname, cluster, memo))
    memo_corruptions

(* ---- verification ------------------------------------------------------ *)

let has code diags =
  List.exists (fun (d : Diag.t) -> d.Diag.code = code) diags

let verify m =
  match m.mrun () with
  | exception e ->
      Error (Printf.sprintf "%s: harness failure: %s" m.mname (Printexc.to_string e))
  | clean, corrupted ->
      if has m.mcode clean then
        Error
          (Printf.sprintf "%s: vacuous — %s already present before corruption"
             m.mname m.mcode)
      else if Diag.errors clean <> [] then
        Error
          (Printf.sprintf "%s: baseline not clean:\n%s" m.mname
             (Fmt.str "%a" Diag.pp_report clean))
      else if not (has m.mcode corrupted) then
        Error
          (Printf.sprintf "%s: corruption escaped — expected %s, got:\n%s"
             m.mname m.mcode
             (Fmt.str "%a" Diag.pp_report corrupted))
      else Ok ()
