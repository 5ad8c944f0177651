(** Physical operators and their delivered-property derivation. *)

(** Scope of an aggregation: per-machine pre-aggregation, combination of
    partials, or single-stage. *)
type agg_scope = Local | Global | Full

type t =
  | P_extract of {
      file : string;
      extractor : string;
      schema : Relalg.Schema.t;
    }  (** parallel scan of an input file, round-robin across machines *)
  | P_filter of { pred : Relalg.Expr.t }
  | P_project of { items : (Relalg.Expr.t * string) list }
  | P_stream_agg of {
      keys : string list;
      aggs : Relalg.Agg.t list;
      scope : agg_scope;
    }  (** requires input sorted on the keys; preserves order *)
  | P_merge_join of {
      kind : Slogical.Logop.join_kind;
      pairs : (string * string) list;
      residual : Relalg.Expr.t option;
    }  (** requires co-partitioned inputs sorted on aligned join keys *)
  | P_hash_join of {
      kind : Slogical.Logop.join_kind;
      pairs : (string * string) list;
      residual : Relalg.Expr.t option;
    }  (** requires co-partitioned inputs *)
  | P_union_all
  | P_spool  (** materialize a shared intermediate result once *)
  | P_output of { file : string }
  | P_sequence
  | P_exchange of { cols : Relalg.Colset.t }
      (** hash repartition; destroys the sort order *)
  | P_merge_exchange of { cols : Relalg.Colset.t }
      (** hash repartition merging sorted runs; preserves the input order *)
  | P_sort of { order : Sortorder.t }
  | P_gather  (** merge every partition onto one machine, preserving order *)

(** UpdateDlvdProp of Algorithm 2: derive the delivered properties of a
    plan rooted at the operator from its children's delivered
    properties.  [out_cols] must be [Schema.colset] of the schema; it is
    built on demand when omitted. *)
val deliver :
  ?out_cols:Relalg.Colset.t -> t -> Relalg.Schema.t -> Props.t list -> Props.t

val is_enforcer : t -> bool

(** Stable display name ("StreamAgg(Local)", "Repartition", ...). *)
val short_name : t -> string

val pp : t Fmt.t
val to_string : t -> string
