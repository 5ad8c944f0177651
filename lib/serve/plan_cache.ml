(* Plan cache for the serve loop.

   Entries are keyed on the normalized script text and the catalog
   version it was optimized under, so a lookup hits only a script whose
   canonical text is equal, under the current statistics epoch: stale
   entries cannot hit by construction, and [purge_stale] merely reclaims
   their memory.  The fingerprint of the text is a reported label, never
   the lookup key, so two texts whose hashes collide keep separate
   entries.  A hit hands back the full pipeline report of the original
   optimization: the caller re-executes the cached physical plan and
   skips parse/bind/optimize entirely. *)

type entry = {
  fingerprint : int;
  normalized : string;
  outputs : int;  (* OUTPUT statements in the script *)
  catalog_version : int;  (* epoch the plan was optimized under *)
  report : Cse.Pipeline.report;
}

type t = { table : (int * string, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let key ~catalog_version normalized =
  Cse.Fingerprint.hash_string
    (normalized ^ "\x00catalog-v" ^ string_of_int catalog_version)

let find t ~catalog_version normalized =
  Hashtbl.find_opt t.table (catalog_version, normalized)

let add t (e : entry) =
  Hashtbl.replace t.table (e.catalog_version, e.normalized) e

let size t = Hashtbl.length t.table

let purge_stale t ~current_version =
  let stale =
    Hashtbl.fold
      (fun k e acc -> if e.catalog_version <> current_version then k :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) stale;
  List.length stale
