(** Begin/end spans and instant events, recorded into per-domain buffers
    and exported as Chrome trace-event JSON (loadable in Perfetto).

    Recording entry points are safe to call from any domain: each domain
    appends to its own buffer without locking.  When tracing is disabled
    (the default) every entry point is a single atomic load and a branch
    — no allocation — so instrumentation can stay in hot loops.  Event
    [pid] is the pipeline phase, [tid] the worker-domain slot of the
    executor's pool ({!Sutil.Pool.current_slot}; the main domain is 0).

    Typical lifecycle: {!start}, run the pipeline, {!stop}, {!collect},
    {!export}.  {!collect} must only be called after worker
    domains have been joined (i.e. outside [Sutil.Pool.with_pool]). *)

type arg = Str of string | Int of int | Float of float

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  pid : int;  (** pipeline phase, see the [pid_*] constants *)
  tid : int;  (** worker-domain slot; 0 is the main domain *)
  ts : float;  (** microseconds since {!start}, monotone per [tid] *)
  args : (string * arg) list;
}

(** {1 Pipeline phases} *)

val pid_frontend : int  (** parse, bind, memo construction *)

val pid_phase1 : int  (** phase-0 (conventional) and phase-1 optimization *)

val pid_phase2 : int  (** phase-2 CSE re-optimization *)

val pid_stage : int  (** stage-graph construction *)

val pid_exec : int  (** staged execution *)

(** Phase id for an optimizer pass number (1 or 2). *)
val pid_of_phase : int -> int

(** {1 Control} *)

(** Enable tracing into fresh buffers.  [capacity] bounds the events
    kept per domain (default [2{^18}]); beyond it new events are dropped
    and counted, never overwritten, so recorded spans stay balanced.
    With [ring:true] (the flight recorder) a full buffer instead
    overwrites its {e oldest} event, keeping the most recent window —
    dumps may then carry orphan [End] events at the head, which
    {!check} [~ring:true] tolerates. *)
val start : ?capacity:int -> ?ring:bool -> unit -> unit

(** Disable tracing.  Recorded events remain available to {!collect}. *)
val stop : unit -> unit

(** Whether the current trace session records in ring mode. *)
val ring : unit -> bool

val enabled : unit -> bool

(** Events dropped to capacity since {!start}, summed over domains. *)
val dropped : unit -> int

(** {1 Recording}

    All no-ops when disabled.  Spans must nest properly per domain:
    end the most recently begun span first.  [args] given to a
    recording call are evaluated by the caller even when tracing is
    off — guard the construction with {!enabled} in hot paths. *)

val begin_span : pid:int -> ?args:(string * arg) list -> string -> unit
val end_span : pid:int -> ?args:(string * arg) list -> string -> unit
val instant : pid:int -> ?args:(string * arg) list -> string -> unit

(** [with_span ~pid name f] wraps [f] in a span; the span is closed even
    if [f] raises. *)
val with_span : pid:int -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** {1 Collection and export} *)

(** Merge all per-domain buffers into one stream, stable-sorted by
    timestamp with per-[tid] order (and hence span nesting) preserved.
    Only call after the worker pool has been joined. *)
val collect : unit -> event list

(** Write events to a file as a Chrome trace-event JSON document, with
    metadata records naming each phase (process) and worker (thread).
    [ring:true] marks the document as a flight-recorder dump with a
    top-level ["ring": true] field, recovered by {!parse_doc}.  The
    descriptor is closed on every path; if the write fails (disk full,
    permissions) the partial file is removed before the exception
    propagates, so no truncated trace is left looking like a complete
    artifact. *)
val export : ?ring:bool -> path:string -> event list -> unit

exception Malformed of string

(** Parse a Chrome trace-event document back into events, also
    recovering the top-level ["ring"] flag (false when absent) so
    checkers know to expect ring truncation.  Raises {!Malformed}. *)
val parse_doc : string -> bool * event list

(** Well-formedness: per [tid], timestamps never decrease, every [End]
    matches the nearest unclosed [Begin] (same name and pid), and no
    span is left open.  Returns human-readable violations, [[]] if the
    trace is well-formed.  [~ring:true] (flight-recorder dumps)
    additionally accepts the two shapes dropped-oldest truncation
    produces — an [End] at an empty stack and spans still open at the
    end of the stream — while keeping every other violation an error. *)
val check : ?ring:bool -> event list -> string list
