(* File catalog: the statistics the optimizer's cardinality estimation and
   the synthetic data generator both consume.  Each registered input file
   carries a row count, an average row width and per-column
   number-of-distinct-values (NDV) statistics. *)

type col_stats = { col : Schema.column; ndv : int }

type file_stats = {
  path : string;
  rows : int;
  row_bytes : int;
  columns : col_stats list;
}

type t = {
  files : (string, file_stats) Hashtbl.t;
  mutable version : int;
      (* statistics epoch: bumped whenever an existing file's statistics
         change (or explicitly via [bump_version]), so long-lived plan
         caches keyed on it are invalidated exactly when cached plans may
         have gone stale.  Registering a *new* file leaves the version
         alone: plans optimized before the file existed cannot read it. *)
}

let create () = { files = Hashtbl.create 16; version = 0 }

let version t = t.version

let bump_version t = t.version <- t.version + 1

let register t stats =
  (match Hashtbl.find_opt t.files stats.path with
  | Some old when old <> stats -> bump_version t
  | _ -> ());
  Hashtbl.replace t.files stats.path stats

let find t path = Hashtbl.find_opt t.files path

let file_schema stats = List.map (fun c -> c.col) stats.columns

let col_ndv stats name =
  match
    List.find_opt (fun c -> c.col.Schema.name = name) stats.columns
  with
  | Some c -> c.ndv
  | None -> max 1 (stats.rows / 10)

let mk_file ~path ~rows ~row_bytes cols =
  {
    path;
    rows;
    row_bytes;
    columns =
      List.map (fun (name, ty, ndv) -> { col = Schema.column name ty; ndv }) cols;
  }

(* Catalog used throughout the paper-reproduction experiments: the
   [test.log]/[test2.log] inputs of scripts S1-S4.  NDVs are chosen so that
   a single column (e.g. B) still provides enough distinct values to keep
   all cluster machines busy -- the regime where the paper's plan with
   repartitioning on {B} wins globally. *)
let default () =
  let t = create () in
  let cols =
    [
      ("A", Schema.Tint, 60);
      ("B", Schema.Tint, 1000);
      ("C", Schema.Tint, 60);
      ("D", Schema.Tint, 1_000_000);
    ]
  in
  register t (mk_file ~path:"test.log" ~rows:100_000_000 ~row_bytes:100 cols);
  register t (mk_file ~path:"test2.log" ~rows:80_000_000 ~row_bytes:100 cols);
  t

(* Ensure a file exists in the catalog, synthesizing default statistics for
   files mentioned by generated scripts. *)
let ensure t ~path ~schema =
  match find t path with
  | Some stats -> stats
  | None ->
      let rows = 50_000_000 in
      let stats =
        {
          path;
          rows;
          row_bytes = 20 * max 1 (List.length schema);
          columns =
            List.map
              (fun (col : Schema.column) -> { col; ndv = 500 }) schema;
        }
      in
      register t stats;
      stats
