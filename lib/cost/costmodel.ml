open Sphys

(* Operator cost functions.

   Each operator's cost is computed from its input plans (their estimated
   stats and delivered properties) and its own output stats.  Parallel
   per-row work is divided by the *effective parallelism* of the input
   stream; data-volume terms (exchange, IO, spooling) are charged on the
   full volume. *)

(* Effective parallelism of [m] machines fed by [k] distinct partition-key
   values: m*k/(k+m).  Smoothly captures load imbalance -- many more keys
   than machines gives ~m, k = m gives m/2, k << m gives ~k.  This is the
   skew term that makes repartitioning on a *wide* column set the local
   optimum at a shared group (Section I's premise). *)
let key_parallelism ?(skew_aware = true) ~machines k =
  if skew_aware then Float.max 1.0 (machines *. k /. (k +. machines))
  else machines

(* Effective parallelism of a plan's output stream, from its delivered
   partitioning and estimated NDVs. *)
let effective_parallelism (cluster : Cluster.t) (p : Plan.t) =
  let m = float_of_int cluster.Cluster.machines in
  match p.Plan.props.Props.part with
  | Partition.Serial -> 1.0
  | Partition.Roundrobin -> m
  | Partition.Hashed s ->
      key_parallelism ~skew_aware:cluster.Cluster.skew_aware ~machines:m
        (Slogical.Stats.colset_ndv p.Plan.stats s)

let volume (s : Slogical.Stats.t) = s.Slogical.Stats.rows *. s.Slogical.Stats.row_bytes

let rows (s : Slogical.Stats.t) = s.Slogical.Stats.rows

(* Cost of [op] given child plans and the output stats of its group. *)
let op_cost (cluster : Cluster.t) (op : Physop.t) (children : Plan.t list)
    ~(out : Slogical.Stats.t) : float =
  let c = cluster in
  let m = float_of_int c.Cluster.machines in
  let child () =
    match children with
    | [ x ] -> x
    | _ -> invalid_arg "Costmodel.op_cost: expected one child"
  in
  let par x = effective_parallelism c x in
  match op with
  | Physop.P_extract _ ->
      (* read the file in parallel across all machines *)
      (volume out *. c.read_byte /. m) +. (c.partition_overhead *. m)
  | Physop.P_filter _ | Physop.P_project _ ->
      let x = child () in
      rows x.Plan.stats *. c.cpu_row /. par x
  | Physop.P_stream_agg _ ->
      let x = child () in
      rows x.Plan.stats *. c.agg_row /. par x
  | Physop.P_merge_join _ -> (
      match children with
      | [ l; r ] ->
          let p = Float.min (par l) (par r) in
          (rows l.Plan.stats +. rows r.Plan.stats) *. c.join_row /. p
      | _ -> invalid_arg "join expects two children")
  | Physop.P_hash_join _ -> (
      match children with
      | [ l; r ] ->
          let p = Float.min (par l) (par r) in
          (rows l.Plan.stats +. rows r.Plan.stats) *. c.hash_join_row /. p
      | _ -> invalid_arg "join expects two children")
  | Physop.P_union_all -> 0.0
  | Physop.P_spool ->
      (* producer side: materialize once.  Consumer reads are charged by
         [Dagcost.spool_read_cost] per consumer. *)
      let x = child () in
      volume x.Plan.stats *. c.spool_write_byte /. par x
  | Physop.P_output _ ->
      let x = child () in
      volume x.Plan.stats *. c.write_byte /. par x
  | Physop.P_sequence -> 0.0
  | Physop.P_exchange { cols } | Physop.P_merge_exchange { cols } ->
      let x = child () in
      let out_par =
        key_parallelism ~skew_aware:c.Cluster.skew_aware ~machines:m
          (Slogical.Stats.colset_ndv out cols)
      in
      let merge =
        match op with
        | Physop.P_merge_exchange _ -> rows x.Plan.stats *. c.merge_row /. out_par
        | _ -> 0.0
      in
      (volume x.Plan.stats *. c.net_byte /. m)
      +. (c.partition_overhead *. out_par)
      +. merge
  | Physop.P_sort _ ->
      let x = child () in
      let p = par x in
      let n = Float.max 2.0 (rows x.Plan.stats /. p) in
      rows x.Plan.stats *. c.sort_row *. Float.log2 n /. p
  | Physop.P_gather ->
      let x = child () in
      (volume x.Plan.stats *. c.net_byte /. m)
      +. (rows x.Plan.stats *. c.merge_row)

(* Cost charged to each *additional* use of a spooled result. *)
let spool_read_cost (cluster : Cluster.t) (spool : Plan.t) =
  let p = effective_parallelism cluster spool in
  volume spool.Plan.stats *. cluster.Cluster.spool_read_byte /. p
