(** The flight recorder: an always-on bounded ring of recent spans and
    events (ring-mode {!Trace}), dumped on demand so post-mortems never
    require rerunning under [--trace].

    Serve enables it at startup and dumps on recovery exhaustion, audit
    failure, or the [#dump] protocol verb. *)

(** Begin ring-mode tracing with a bounded window ([2{^14}] events per
    domain) — unless a trace session is already active (an explicit
    [--trace] run), which is left untouched. *)
val enable : unit -> unit

(** Write [text] to [path], removing the partial file when the write
    fails; the [Sys_error] propagates. *)
val write_file : string -> string -> unit

(** Dump the current window: writes [<prefix>-flight-trace.json]
    (Chrome trace, ring-flagged when recording in ring mode) and, when
    [metrics] is given (a pre-rendered snapshot),
    [<prefix>-flight-metrics.json].  Only call with worker domains
    joined, like {!Trace.collect}.  Returns the paths written. *)
val dump : ?metrics:string -> prefix:string -> unit -> string list
