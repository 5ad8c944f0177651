(* The benchmark's own span recorder.

   Spans wrap the benchmark's calls into the library's public functions;
   nothing inside the library is instrumented or switched on (the
   library's own [Sobs.Trace] spans stay disabled, so a traced pass costs
   only these few boundary events).  Each span is named after the
   per-layer metric it feeds, so a trace shows directly where a saving
   lands.  Events are [Sobs.Trace.event] values on tid 0, written with
   [Sobs.Trace.export] — the Chrome trace format [scopeopt check-trace]
   reads. *)

type t = {
  mutable on : bool;
  mutable events_rev : Sobs.Trace.event list;
  mutable t0 : float;
  mutable last_ts : float;
}

let create () = { on = false; events_rev = []; t0 = 0.0; last_ts = 0.0 }

let start t =
  t.on <- true;
  t.events_rev <- [];
  t.t0 <- Unix.gettimeofday ();
  t.last_ts <- 0.0

let stop t = t.on <- false

(* Microseconds since [start], clamped monotone: the checker rejects a
   timestamp that goes backwards on one tid. *)
let now t =
  let ts = (Unix.gettimeofday () -. t.t0) *. 1e6 in
  let ts = Float.max ts t.last_ts in
  t.last_ts <- ts;
  ts

let push t kind ~pid ?(args = []) name =
  t.events_rev <-
    { Sobs.Trace.kind; name; pid; tid = 0; ts = now t; args } :: t.events_rev

(* [span t ~pid name f] records [f] as one span when tracing is on. *)
let span t ~pid name f =
  if not t.on then f ()
  else begin
    push t Sobs.Trace.Begin ~pid name;
    Fun.protect ~finally:(fun () -> push t Sobs.Trace.End ~pid name) f
  end

(* An instant event carrying figures the library reports about the work
   a span covered (a serve flush's executor wall and optimization
   count), so the trace keeps them next to the span. *)
let note t ~pid name args =
  if t.on then push t Sobs.Trace.Instant ~pid ~args name

let events t = List.rev t.events_rev

(* Self time per span name, in seconds: a span's duration minus the part
   covered by its direct children.  Spans nest properly (they are
   recorded by [span] only). *)
let self_seconds t =
  let self = Hashtbl.create 16 in
  let add name d =
    Hashtbl.replace self name
      (d +. Option.value ~default:0.0 (Hashtbl.find_opt self name))
  in
  (* stack of (name, begin ts, children total) *)
  let stack = ref [] in
  List.iter
    (fun (e : Sobs.Trace.event) ->
      match e.Sobs.Trace.kind with
      | Sobs.Trace.Begin -> stack := (e.Sobs.Trace.name, e.Sobs.Trace.ts, ref 0.0) :: !stack
      | Sobs.Trace.End -> (
          match !stack with
          | (name, b, children) :: rest ->
              let d = e.Sobs.Trace.ts -. b in
              add name ((d -. !children) /. 1e6);
              (match rest with (_, _, pc) :: _ -> pc := !pc +. d | [] -> ());
              stack := rest
          | [] -> ())
      | Sobs.Trace.Instant -> ())
    (events t);
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt self name)

let export t ~path = Sobs.Trace.export ~path (events t)
