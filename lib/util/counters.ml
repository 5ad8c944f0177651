(* Named monotonic counters for hot-path instrumentation.

   A counter is registered once at module initialization and bumped
   through its atomic cell, so the per-event cost is one atomic add -- no
   name lookup on the hot path.  Cells are [Atomic.t] so the staged
   executor's worker domains can bump the same counter concurrently
   without losing increments; single-domain callers pay one lock-free
   fetch-and-add, which on uncontended counters costs the same as the
   plain increment it replaced.  The registry is global and append-only
   (guarded by a mutex for concurrent first-registration); per-run
   figures come from diffing against a [baseline] ([deltas]). *)

let registry : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16
let registry_mu = Mutex.create ()

(* Reset epoch: bumped by [reset_all] so baselines taken before a reset
   are recognized as stale and diffed against zero instead of producing
   negative deltas.  Guarded by [registry_mu]. *)
let generation = ref 0

let counter name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some r -> r
      | None ->
          let r = Atomic.make 0 in
          Hashtbl.add registry name r;
          r)

let bump r n = ignore (Atomic.fetch_and_add r n)

let snapshot_unlocked () =
  Hashtbl.fold (fun name r acc -> (name, Atomic.get r) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Union-diff of two value lists by name: every name either side has seen
   is reported, with nonzero deltas only.  Diffing only the current
   snapshot would hide a counter that was bumped and then reset back to
   its baseline value by a nested run. *)
let union_diff before now =
  let union =
    List.sort_uniq String.compare (List.map fst before @ List.map fst now)
  in
  List.filter_map
    (fun name ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      let v = Option.value ~default:0 (List.assoc_opt name now) in
      if v <> v0 then Some (name, v - v0) else None)
    union

(* Reset-safe per-run scoping: a baseline records the reset epoch next to
   the values, so [deltas] of a baseline taken before an intervening
   [reset_all] diffs against zero (the counters restarted) instead of
   reporting negative figures. *)
type baseline = { gen : int; values : (string * int) list }

let baseline () =
  Mutex.protect registry_mu (fun () ->
      { gen = !generation; values = snapshot_unlocked () })

let deltas b =
  let gen_now, now =
    Mutex.protect registry_mu (fun () -> (!generation, snapshot_unlocked ()))
  in
  let before = if gen_now = b.gen then b.values else [] in
  union_diff before now

let reset_all () =
  Mutex.protect registry_mu (fun () ->
      incr generation;
      Hashtbl.iter (fun _ r -> Atomic.set r 0) registry)
