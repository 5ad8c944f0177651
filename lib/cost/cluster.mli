(** Cluster and cost-model parameters.

    Costs approximate wall-clock work: parallel per-row work divided by the
    effective parallelism of the operator's input, plus data-volume terms
    for IO and network. The shape-defining choice is the skew model: the
    effective parallelism of a hash-partitioned stream grows with the NDV
    of its partitioning columns, making the widest key subset the local
    optimum at a shared group — the paper's Section I premise. *)

type t = {
  machines : int;
  net_byte : float;  (** shuffling a byte across the network *)
  read_byte : float;  (** reading a byte from the distributed FS *)
  write_byte : float;  (** writing a byte to the distributed FS *)
  spool_write_byte : float;  (** materializing a spooled byte *)
  spool_read_byte : float;  (** re-reading a spooled byte, per consumer *)
  cpu_row : float;  (** basic per-row processing *)
  agg_row : float;  (** stream aggregation per input row *)
  sort_row : float;  (** per row and per log2(rows/partition) *)
  join_row : float;  (** merge join per input row *)
  hash_join_row : float;  (** hash join per input row *)
  merge_row : float;  (** run merging in sort-merge exchanges / gathers *)
  partition_overhead : float;  (** fixed startup cost per partition *)
  skew_aware : bool;
      (** when false, partitioning never limits parallelism (ablation knob
          for the skew model) *)
}

(** The configuration used throughout the experiments (25 machines). *)
val default : t

val with_machines : int -> t -> t
