(* Cluster and cost-model parameters.

   Costs approximate wall-clock work: per-machine operator work divided by
   the effective parallelism of the operator's input, plus data-volume
   terms for IO and the network.  The single deliberately *shape-defining*
   choice is that the effective parallelism of a hash-partitioned stream is
   capped by the NDV of the partitioning columns: repartitioning on a
   narrow column set keeps fewer machines busy downstream, which makes the
   widest subset the local optimum at a shared group -- exactly the premise
   of the paper's running example (Section I). *)

type t = {
  machines : int;
  (* per-byte constants *)
  net_byte : float; (* shuffling a byte across the network *)
  read_byte : float; (* reading a byte from the distributed FS *)
  write_byte : float; (* writing a byte to the distributed FS *)
  spool_write_byte : float; (* materializing a spooled byte *)
  spool_read_byte : float; (* re-reading a spooled byte, per consumer *)
  (* per-row constants *)
  cpu_row : float; (* basic per-row processing (filter, project) *)
  agg_row : float; (* stream aggregation per input row *)
  sort_row : float; (* per row and per log2(rows/partition) *)
  join_row : float; (* merge join per input row *)
  hash_join_row : float; (* hash join per input row *)
  merge_row : float; (* run merging in a sort-merge exchange / gather *)
  partition_overhead : float; (* fixed startup cost per partition touched *)
  (* when false, partitioning never limits parallelism: every hash scheme
     keeps all machines busy.  Ablation knob for the skew model -- without
     it, repartitioning on {B} and on {A,B,C} cost the same locally and the
     paper's local-vs-global tension disappears. *)
  skew_aware : bool;
}

let default =
  {
    machines = 25;
    net_byte = 1.0;
    read_byte = 0.75;
    write_byte = 1.0;
    (* materialized intermediates are already parsed and columnar: cheaper
       to rescan than re-running an extractor over the raw input *)
    spool_write_byte = 0.3;
    spool_read_byte = 0.15;
    cpu_row = 0.3;
    agg_row = 0.5;
    sort_row = 0.1;
    join_row = 0.6;
    hash_join_row = 0.9;
    merge_row = 0.08;
    partition_overhead = 1000.0;
    skew_aware = true;
  }

let with_machines machines t = { t with machines }
