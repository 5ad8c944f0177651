open Relalg

(* Deterministic synthetic data generation driven by the catalog.

   Execution runs on a scaled-down copy of each input: row counts are
   capped (the catalog describes 10^8-row files; the simulator exercises
   the same plans on a few thousand rows) and NDVs are scaled so grouping
   still aggregates.  The same file name always yields the same rows. *)

(* Rows per input at most. *)
let max_rows = 2_000

let scaled_rows (stats : Catalog.file_stats) = min stats.Catalog.rows max_rows

let scaled_ndv (stats : Catalog.file_stats) ndv =
  let rows = scaled_rows stats in
  let scale =
    float_of_int rows /. float_of_int (max 1 stats.Catalog.rows)
  in
  (* keep small NDVs as they are; compress huge ones proportionally *)
  max 2 (min ndv (max 2 (int_of_float (float_of_int ndv *. scale) + 2)))

let value_for (ty : Schema.coltype) v =
  match ty with
  | Schema.Tint -> Value.Int v
  | Schema.Tfloat -> Value.Float (float_of_int v)
  | Schema.Tstr -> Value.Str (Printf.sprintf "v%d" v)

(* Generation is a pure function of (file, schema, stats) — the
   RNG is seeded from the file name alone — so tables are memoized on
   that structural key.  Every consumer (engine extracts, the reference
   evaluator, repeated runs on a reused engine) gets the same physical
   table it would have regenerated, draw for draw; only the splitmix64
   work is saved.  Guarded by a mutex: engine stages extract from pool
   domains.  The memo is bounded — property-based tests stream thousands
   of one-shot catalogs through here — by resetting when it outgrows
   [memo_cap]. *)
let memo : (string * Schema.t * Catalog.file_stats, Table.t) Hashtbl.t =
  Hashtbl.create 64

let memo_mu = Mutex.create ()
let memo_cap = 512

let generate (stats : Catalog.file_stats) ~(file : string)
    ~(schema : Schema.t) : Table.t =
  let rows = scaled_rows stats in
  let rng = Sutil.Rng.create (Hashtbl.hash file) in
  let gen_col (c : Schema.column) =
    let ndv = scaled_ndv stats (Catalog.col_ndv stats c.Schema.name) in
    fun () -> value_for c.Schema.ty (Sutil.Rng.int rng ndv)
  in
  let gens = List.map gen_col schema in
  let data =
    List.init rows (fun _ -> Array.of_list (List.map (fun g -> g ()) gens))
  in
  Table.make schema data

(* The full (scaled) table of a catalog file, restricted to [schema]'s
   columns. *)
let table (catalog : Catalog.t) ~(file : string) ~(schema : Schema.t) :
    Table.t =
  match Catalog.find catalog file with
  | None -> Table.empty schema
  | Some stats ->
      let key = (file, schema, stats) in
      Mutex.protect memo_mu (fun () ->
          match Hashtbl.find_opt memo key with
          | Some t -> t
          | None ->
              let t = generate stats ~file ~schema in
              if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
              Hashtbl.add memo key t;
              t)
