(* Fingerprint-keyed plan cache for the serve loop.

   The key folds the catalog version into the hash of the normalized
   script text, so a statistics epoch change makes every prior key
   unreachable — stale entries cannot hit by construction; [purge_stale]
   merely reclaims their memory.  A hit hands back the full pipeline
   report of the original optimization: the caller re-executes the
   cached physical plan and skips parse/bind/optimize entirely. *)

type entry = {
  fingerprint : int;
  normalized : string;  (* canonical text, for diagnostics / collisions *)
  outputs : int;  (* OUTPUT statements in the script *)
  catalog_version : int;  (* epoch the plan was optimized under *)
  report : Cse.Pipeline.report;
}

type t = { table : (int, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let key ~catalog_version normalized =
  Cse.Fingerprint.hash_string
    (normalized ^ "\x00catalog-v" ^ string_of_int catalog_version)

let find t fp = Hashtbl.find_opt t.table fp

let add t (e : entry) = Hashtbl.replace t.table e.fingerprint e

let size t = Hashtbl.length t.table

let purge_stale t ~current_version =
  let stale =
    Hashtbl.fold
      (fun fp e acc ->
        if e.catalog_version <> current_version then fp :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) stale;
  List.length stale
