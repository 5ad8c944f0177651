(* Order statistics shared by the workloads. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Percentile by linear interpolation between the closest ranks, so a
   figure over a few items moves smoothly rather than jumping between
   them. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

let geomean = function
  | [] -> 1.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* The process's major-heap high-water mark. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

(* Host-speed probe, timed between items by the probe server
   ([probe.ml], started beside this executable): a process of its own,
   so its time does not depend on this process's heap or GC state.  The
   benchmark waits while the server probes. *)
type prober = { pid : int; req : out_channel; resp : in_channel }

let prober = ref None

let probe_start () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  prober :=
    Some
      { pid; req = Unix.out_channel_of_descr req_w;
        resp = Unix.in_channel_of_descr resp_r }

(* Close the server's input, which ends it, and wait for it. *)
let probe_stop () =
  match !prober with
  | None -> ()
  | Some p ->
      prober := None;
      close_out p.req;
      close_in p.resp;
      ignore (Unix.waitpid [] p.pid)

let probe () =
  match !prober with
  | None -> invalid_arg "Stat.probe: the probe server is not running"
  | Some p ->
      output_char p.req 'p';
      flush p.req;
      float_of_string (input_line p.resp)

(* The probe time that calibrated figures are scaled to: its median
   between items on the two-vCPU Xeon VM the benchmark was tuned on, in
   one of that host's fast periods.  A calibrated time is the raw time
   times [probe_ref_s / probe median of the same pass]: what the work
   would have taken at the reference host speed. *)
let probe_ref_s = 0.010

(* Per-item time samples over identical replays (seconds), tagged with
   their pass, plus the host-speed probes taken between items. *)
type samples = {
  items : (int * float) list array;
  mutable probes : (int * float) list;  (* (pass, seconds) *)
  mutable last_probe : float;
}

let samples_create n = { items = Array.make n []; probes = []; last_probe = 0.0 }
let note s ~pass i dt = s.items.(i) <- (pass, dt) :: s.items.(i)

(* Probe at most every quarter second, outside the measured time. *)
let maybe_probe s ~pass =
  let now = Unix.gettimeofday () in
  if now -. s.last_probe > 0.25 then begin
    s.probes <- (pass, probe ()) :: s.probes;
    s.last_probe <- Unix.gettimeofday ()
  end

let probe_median s = median (List.map snd s.probes)

(* Passes with at least one item measured. *)
let passes s =
  Array.fold_left
    (fun acc xs -> List.fold_left (fun acc (p, _) -> max acc (p + 1)) acc xs)
    0 s.items

(* Median probe time of one pass, or of the whole run when the pass
   has no probe. *)
let pass_probe s pass =
  match List.filter_map (fun (p, x) -> if p = pass then Some x else None) s.probes with
  | [] -> probe_median s
  | ps -> median ps

(* Calibration factor of each pass, or 1 when [raw]. *)
let factor ?(raw = false) s pass = if raw then 1.0 else probe_ref_s /. pass_probe s pass

(* Each item's median time over the passes, calibrated unless [raw]. *)
let per_item ?raw s =
  let f = factor ?raw s in
  Array.map (fun xs -> median (List.map (fun (p, dt) -> dt *. f p) xs)) s.items

(* Measured time of one pass, calibrated unless [raw]. *)
let pass_total ?raw s pass =
  let f = factor ?raw s pass in
  Array.fold_left
    (fun acc xs ->
      List.fold_left
        (fun acc (p, dt) -> if p = pass then acc +. (dt *. f) else acc)
        acc xs)
    0.0 s.items
