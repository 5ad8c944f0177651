(* Algorithm 1: IdentifyCommonSubexpressions.

   1. Merge structurally equal subexpressions found via fingerprint
      collisions (each class keeps its lowest-id representative; consumers
      of the duplicates are redirected).  Because groups are numbered
      children-first, a bottom-up sweep merges leaves before the parents
      that then become equal through the redirected children.
   2. Every group referenced by more than one (reachable) parent gets a
      SPOOL group on top; all consumers are re-pointed to the spool, which
      is marked as shared.

   Returns the descriptor list of the shared groups found. *)

type shared = {
  spool : int; (* the spool group (the one marked shared) *)
  under : int; (* the group being materialized *)
  initial_consumers : int; (* distinct parents at identification time *)
}

let insert_spool (memo : Smemo.Memo.t) gid ~consumers =
  let g = Smemo.Memo.group memo gid in
  let spool =
    Smemo.Memo.add_group memo
      { Smemo.Memo.mop = Slogical.Logop.Spool; children = [ gid ] }
      g.Smemo.Memo.schema
  in
  Smemo.Memo.redirect memo ~from_:gid ~to_:spool.Smemo.Memo.id
    ~except:spool.Smemo.Memo.id;
  spool.Smemo.Memo.shared <- true;
  { spool = spool.Smemo.Memo.id; under = gid; initial_consumers = consumers }

let identify (memo : Smemo.Memo.t) : shared list =
  (* --- fingerprint merge of equal subexpressions ---------------------- *)
  let fps = Fingerprint.of_memo memo in
  (* bucket reachable groups by fingerprint *)
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let live = Smemo.Memo.reachable memo in
  Smemo.Memo.iter_groups memo (fun g ->
      let gid = g.Smemo.Memo.id in
      if live.(gid) then
        match Hashtbl.find_opt fps gid with
        | Some f ->
            Hashtbl.replace buckets f
              (gid :: Option.value ~default:[] (Hashtbl.find_opt buckets f))
        | None -> ());
  let merged : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* bottom-up: group ids are topological (children first) *)
  Hashtbl.iter
    (fun _ gids ->
      let gids = List.sort Int.compare gids in
      match gids with
      | [] | [ _ ] -> ()
      | rep0 :: rest ->
          (* several colliding entries: structural comparison decides *)
          let reps = ref [ rep0 ] in
          List.iter
            (fun gid ->
              match
                List.find_opt (fun r -> Fingerprint.equal_subexpr memo r gid) !reps
              with
              | Some rep -> Hashtbl.replace merged gid rep
              | None -> reps := !reps @ [ gid ])
            rest)
    buckets;
  (* apply merges lowest-duplicate first so redirects compose *)
  let pairs =
    Hashtbl.fold (fun d r acc -> (d, r) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (dup, rep) ->
      Smemo.Memo.redirect memo ~from_:dup ~to_:rep ~except:rep)
    pairs;
  (* --- explicit sharing: spool every multi-consumer group -------------- *)
  let parents = Smemo.Memo.parents memo in
  let shared = ref [] in
  let original_count = Array.length parents in
  for gid = 0 to original_count - 1 do
    let g = Smemo.Memo.group memo gid in
    let n = List.length parents.(gid) in
    let es = g.Smemo.Memo.exprs in
    if n > 1 && es <> [] then begin
      match (List.hd es).Smemo.Memo.mop with
      | Slogical.Logop.Spool -> g.Smemo.Memo.shared <- true
      | _ -> shared := insert_spool memo gid ~consumers:n :: !shared
    end
  done;
  List.rev !shared
