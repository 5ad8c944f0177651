(** Named monotonic counters for hot-path instrumentation.

    Register once at module initialization, bump through the atomic
    cell:

    {[
      let hits = Sutil.Counters.counter "optimizer.winner_hits"
      let f () = Sutil.Counters.bump hits 1
    ]}

    Cells are [Atomic.t], so worker domains of the parallel staged
    executor can bump the same counter concurrently without losing
    increments.  The registry is global and append-only; per-run figures
    come from diffing against a {!baseline} with {!deltas}. *)

(** The atomic cell behind a named counter, registering it at zero on
    first sight.  Callers keep the cell so the per-event cost is one
    lock-free fetch-and-add. *)
val counter : string -> int Atomic.t

(** [bump c n] adds [n] to the counter, atomically. *)
val bump : int Atomic.t -> int -> unit

(** A per-run scope: the counter values {e and} the reset epoch at the
    moment it was taken. *)
type baseline

val baseline : unit -> baseline

(** Nonzero per-name deltas since the baseline, sorted by name and
    diffed over the {e union} of the names then and now: counters
    registered after the baseline count from zero, and counters back at
    their baseline value are absent.  If {!reset_all} ran after the
    baseline was taken, the counters restarted from zero and the
    baseline values are treated as zero — deltas never go negative, so
    back-to-back runs in one process report clean figures. *)
val deltas : baseline -> (string * int) list

(** Zero every registered counter and start a new reset epoch (tests,
    repeated bench runs). *)
val reset_all : unit -> unit
