(* Begin/end spans and instant events in per-domain buffers, exported as
   Chrome trace-event JSON.

   Recording is domain-safe without locks on the hot path: every domain
   appends to its own growable buffer (fetched once per event through
   [Domain.DLS]), and buffers are only merged at collection time, after
   the worker pool has been joined.  The global mutex is touched solely
   when a domain registers its buffer for the first time in a trace
   generation.  When tracing is disabled -- the default -- every
   recording entry point is one atomic load and a branch: no allocation,
   so instrumented hot loops cost nothing in production runs.

   Event coordinates follow the pipeline: [pid] is the pipeline phase
   (frontend, phase-0/1 optimization, phase-2 re-optimization, stage-graph
   construction, execution) and [tid] is the worker-domain slot of the
   executor's pool ([Sutil.Pool.current_slot]; the main domain is slot
   0).  Timestamps are microseconds since [start], clamped to be
   monotone per buffer (and re-clamped per tid at merge), so the
   well-formedness checker can insist on per-domain monotonicity.

   A buffer that reaches its capacity drops further events (counted, and
   reported by [dropped]) rather than overwriting old ones: dropping the
   newest keeps already-recorded spans balanced.

   In *ring* mode ([start ~ring:true], the flight recorder) the policy
   flips: a full buffer overwrites its oldest event instead, so a
   long-running serve process always holds the most recent window of
   activity for a post-mortem dump.  Ring truncation may orphan the
   [End] events whose [Begin] was overwritten — the checker accepts
   exactly that shape under [~ring:true] (see [check]). *)

type arg = Str of string | Int of int | Float of float

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  pid : int;
  tid : int;
  ts : float;  (* microseconds since trace start, monotone per tid *)
  args : (string * arg) list;
}

(* --- pipeline phase ids ------------------------------------------------ *)

let pid_frontend = 1
let pid_phase1 = 2
let pid_phase2 = 3
let pid_stage = 4
let pid_exec = 5

let pid_of_phase = function 2 -> pid_phase2 | _ -> pid_phase1

let pid_name = function
  | 1 -> "frontend (parse, bind, memo)"
  | 2 -> "phase-0 and phase-1 optimization"
  | 3 -> "phase-2 CSE re-optimization"
  | 4 -> "stage-graph construction"
  | 5 -> "execution"
  | _ -> "other"

(* --- recording --------------------------------------------------------- *)

let dummy_event =
  { kind = Instant; name = ""; pid = 0; tid = 0; ts = 0.0; args = [] }

type buf = {
  mutable gen : int;  (* trace generation this buffer belongs to *)
  mutable tid : int;
  mutable evs : event array;
  mutable n : int;
  mutable head : int;  (* ring mode: oldest slot once the buffer is full *)
  mutable last_ts : float;
  mutable dropped : int;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Ring mode: full buffers overwrite their oldest event (flight
   recorder) instead of dropping the newest. *)
let ring_flag = Atomic.make false
let ring () = Atomic.get ring_flag

let mu = Mutex.create ()
let generation = ref 0
let capacity = ref (1 lsl 18)
let started_at = ref 0.0
let registry : buf list ref = ref []  (* newest first; reversed at collect *)

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        gen = -1;
        tid = 0;
        evs = [||];
        n = 0;
        head = 0;
        last_ts = 0.0;
        dropped = 0;
      })

(* The calling domain's buffer for the current generation, (re)registered
   under the mutex when the domain first records in this generation. *)
let my_buf () =
  let b = Domain.DLS.get buf_key in
  let gen = !generation in
  if b.gen <> gen then begin
    b.gen <- gen;
    b.tid <- Sutil.Pool.current_slot ();
    b.evs <- [||];
    b.n <- 0;
    b.head <- 0;
    b.last_ts <- 0.0;
    b.dropped <- 0;
    Mutex.protect mu (fun () -> registry := b :: !registry)
  end;
  b

let now_us () = (Unix.gettimeofday () -. !started_at) *. 1e6

let append kind ~pid name args =
  let b = my_buf () in
  if b.n >= !capacity then
    if Atomic.get ring_flag then begin
      (* overwrite the oldest event; the buffer is exactly [capacity]
         long once full (growth is capped there), [head] is the oldest
         slot and the overwritten event counts as dropped *)
      let ts = Float.max (now_us ()) b.last_ts in
      b.last_ts <- ts;
      b.evs.(b.head) <- { kind; name; pid; tid = b.tid; ts; args };
      b.head <- (b.head + 1) mod Array.length b.evs;
      b.dropped <- b.dropped + 1
    end
    else b.dropped <- b.dropped + 1
  else begin
    if b.n >= Array.length b.evs then begin
      let len = max 1024 (min !capacity (2 * Array.length b.evs)) in
      let evs = Array.make len dummy_event in
      Array.blit b.evs 0 evs 0 b.n;
      b.evs <- evs
    end;
    let ts = Float.max (now_us ()) b.last_ts in
    b.last_ts <- ts;
    b.evs.(b.n) <- { kind; name; pid; tid = b.tid; ts; args };
    b.n <- b.n + 1
  end

let begin_span ~pid ?(args = []) name =
  if enabled () then append Begin ~pid name args

let end_span ~pid ?(args = []) name =
  if enabled () then append End ~pid name args

let instant ~pid ?(args = []) name =
  if enabled () then append Instant ~pid name args

let with_span ~pid ?args name f =
  if not (enabled ()) then f ()
  else begin
    append Begin ~pid name (Option.value ~default:[] args);
    Fun.protect ~finally:(fun () -> append End ~pid name []) f
  end

(* --- control ----------------------------------------------------------- *)

let start ?capacity:(cap = 1 lsl 18) ?(ring = false) () =
  Mutex.protect mu (fun () ->
      incr generation;
      registry := [];
      capacity := max 1024 cap;
      started_at := Unix.gettimeofday ());
  Atomic.set ring_flag ring;
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let dropped () =
  Mutex.protect mu (fun () ->
      List.fold_left (fun acc b -> acc + b.dropped) 0 !registry)

(* --- collection -------------------------------------------------------- *)

(* Merge every registered buffer: concatenate in registration order, then
   stable-sort by timestamp.  Equal timestamps keep registration order,
   so the per-buffer recording order -- and with it span nesting -- is
   preserved within a tid.  Timestamps are re-clamped per tid so that
   successive pool generations mapping distinct domains to the same slot
   still yield a monotone per-tid stream.  Call only after worker domains
   have been joined (the pool's [with_pool] has returned). *)
let collect () =
  let bufs = Mutex.protect mu (fun () -> List.rev !registry) in
  (* a wrapped ring buffer holds its oldest event at [head]; unwrap so
     the per-buffer stream is in recording order *)
  let events_of b =
    if b.head = 0 then Array.to_list (Array.sub b.evs 0 b.n)
    else
      Array.to_list (Array.sub b.evs b.head (b.n - b.head))
      @ Array.to_list (Array.sub b.evs 0 b.head)
  in
  let all = List.concat_map events_of bufs in
  let all = List.stable_sort (fun a b -> Float.compare a.ts b.ts) all in
  let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (e : event) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt last e.tid) in
      let ts = Float.max e.ts prev in
      Hashtbl.replace last e.tid ts;
      if ts = e.ts then e else { e with ts })
    all

(* --- Chrome trace-event JSON ------------------------------------------- *)

let json_of_arg = function
  | Str s -> Json.Str s
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f

let ph_of_kind = function Begin -> "B" | End -> "E" | Instant -> "i"

(* Streamed through a buffer rather than built as one [Json.t]: traces
   can hold hundreds of thousands of events.  [~ring:true] marks the
   document as a flight-recorder dump (top-level ["ring": true]), which
   tells the checker to expect dropped-oldest truncation. *)
let write_chrome ?(ring = false) oc (events : event list) =
  let buf = Buffer.create (1 lsl 16) in
  let flush_buf () =
    output_string oc (Buffer.contents buf);
    Buffer.clear buf
  in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let emit fields =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "  {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Json.escape k);
        Buffer.add_string buf ": ";
        Buffer.add_string buf v)
      fields;
    Buffer.add_string buf "}";
    if Buffer.length buf > 1 lsl 15 then flush_buf ()
  in
  (* metadata: name the phases (pids) and worker slots (tids) *)
  let pids = List.sort_uniq compare (List.map (fun (e : event) -> e.pid) events) in
  let tids = List.sort_uniq compare (List.map (fun (e : event) -> e.tid) events) in
  List.iter
    (fun pid ->
      emit
        [
          ("name", {|"process_name"|});
          ("ph", {|"M"|});
          ("pid", string_of_int pid);
          ("tid", "0");
          ("args", Printf.sprintf "{\"name\": %s}" (Json.escape (pid_name pid)));
        ];
      emit
        [
          ("name", {|"process_sort_index"|});
          ("ph", {|"M"|});
          ("pid", string_of_int pid);
          ("tid", "0");
          ("args", Printf.sprintf "{\"sort_index\": %d}" pid);
        ])
    pids;
  List.iter
    (fun tid ->
      List.iter
        (fun pid ->
          emit
            [
              ("name", {|"thread_name"|});
              ("ph", {|"M"|});
              ("pid", string_of_int pid);
              ("tid", string_of_int tid);
              ("args",
               Printf.sprintf "{\"name\": %s}"
                 (Json.escape (Printf.sprintf "worker %d" tid)));
            ])
        pids)
    tids;
  List.iter
    (fun e ->
      let args =
        match e.args with
        | [] -> []
        | args ->
            [
              ( "args",
                "{"
                ^ String.concat ", "
                    (List.map
                       (fun (k, v) ->
                         Printf.sprintf "%s: %s" (Json.escape k)
                           (String.trim (Json.to_string (json_of_arg v))))
                       args)
                ^ "}" );
            ]
      in
      let scope =
        match e.kind with Instant -> [ ("s", {|"t"|}) ] | _ -> []
      in
      emit
        ([
           ("name", Json.escape e.name);
           ("ph", Printf.sprintf "%S" (ph_of_kind e.kind));
           ("ts", Printf.sprintf "%.3f" e.ts);
           ("pid", string_of_int e.pid);
           ("tid", string_of_int e.tid);
         ]
        @ scope @ args))
    events;
  Buffer.add_string buf "\n]";
  if ring then Buffer.add_string buf ",\n\"ring\": true";
  Buffer.add_string buf "}\n";
  flush_buf ()

(* Write a Chrome trace file, closing the descriptor and removing the
   partial file if anything fails mid-write (ENOSPC, permissions): a
   truncated JSON left behind would make a later [check-trace] choke on
   what looks like a complete artifact. *)
let export ?(ring = false) ~path events =
  let oc = open_out path in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !ok then try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_chrome ~ring oc events;
      (* surface buffered-write failures here, not at close_out_noerr *)
      flush oc;
      ok := true)

(* --- re-reading (the CI checker's entry point) ------------------------- *)

exception Malformed of string

let arg_of_json = function
  | Json.Str s -> Str s
  | Json.Num f when Float.is_integer f -> Int (int_of_float f)
  | Json.Num f -> Float f
  | Json.Bool b -> Str (string_of_bool b)
  | _ -> Str "?"

(* Parse a Chrome trace-event document; the [bool] is the top-level
   ["ring"] flag written by flight-recorder dumps. *)
let parse_doc (text : string) : bool * event list =
  let doc =
    try Json.parse text
    with Json.Parse_error msg -> raise (Malformed ("bad JSON: " ^ msg))
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> raise (Malformed "no traceEvents array")
  in
  let ring =
    match Json.member "ring" doc with Some (Json.Bool b) -> b | _ -> false
  in
  ( ring,
    List.filter_map
    (fun ev ->
      let str name = Option.bind (Json.member name ev) Json.to_str in
      let num name = Option.bind (Json.member name ev) Json.to_float in
      match str "ph" with
      | Some "M" -> None  (* metadata *)
      | Some ph ->
          let kind =
            match ph with
            | "B" -> Begin
            | "E" -> End
            | "i" -> Instant
            | other -> raise (Malformed ("unknown event phase " ^ other))
          in
          let req name get =
            match get name with
            | Some v -> v
            | None -> raise (Malformed ("event missing " ^ name))
          in
          let args =
            match Json.member "args" ev with
            | Some (Json.Obj fields) ->
                List.map (fun (k, v) -> (k, arg_of_json v)) fields
            | _ -> []
          in
          Some
            {
              kind;
              name = req "name" str;
              pid = int_of_float (req "pid" num);
              tid = int_of_float (req "tid" num);
              ts = req "ts" num;
              args;
            }
      | None -> raise (Malformed "event missing ph"))
      events )

(* --- well-formedness --------------------------------------------------- *)

(* The properties every collected (or re-parsed) trace must satisfy:
   within each tid, timestamps never decrease, every End matches the
   nearest unclosed Begin by name and pid, and no span is left open.
   Instants may appear anywhere.

   [~ring:true] (flight-recorder dumps) relaxes exactly the two shapes
   dropped-oldest truncation produces and nothing more: an End arriving
   at an *empty* stack (its Begin was overwritten — in a well-formed
   stream, anything opened after that Begin has already closed by then,
   so the stack is provably empty at such an End) and spans still open
   at the end of the stream (the dump was taken mid-run).  An End that
   mismatches a *nonempty* stack top can never come from truncation and
   stays an error, as do timestamp regressions. *)
let check ?(ring = false) (events : event list) : string list =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let by_tid : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : event) ->
      match Hashtbl.find_opt by_tid e.tid with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add by_tid e.tid (ref [ e ]))
    events;
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] in
  List.iter
    (fun tid ->
      let evs = List.rev !(Hashtbl.find by_tid tid) in
      let last_ts = ref neg_infinity in
      let stack = ref [] in
      List.iter
        (fun e ->
          if e.ts < !last_ts then
            error "tid %d: timestamp went backwards at %S (%.3f < %.3f)" tid
              e.name e.ts !last_ts;
          last_ts := Float.max !last_ts e.ts;
          match e.kind with
          | Begin -> stack := (e.name, e.pid) :: !stack
          | End -> (
              match !stack with
              | (name, pid) :: rest ->
                  if name <> e.name || pid <> e.pid then
                    error
                      "tid %d: end of %S (pid %d) does not match open span %S \
                       (pid %d)"
                      tid e.name e.pid name pid;
                  stack := rest
              | [] ->
                  if not ring then
                    error "tid %d: end of %S with no open span" tid e.name)
          | Instant -> ())
        evs;
      if not ring then
        List.iter
          (fun (name, _) -> error "tid %d: span %S never ended" tid name)
          !stack)
    (List.sort compare tids);
  List.rev !errors
