(** Deterministic, schedule-independent fault injection for the staged
    executor.

    Partition-loss and machine-failure events are drawn at stage
    completions, with the dice for each draw keyed on
    [(seed, stage, attempt)] rather than consumed from one sequential
    stream.  The same seed, rate and plan therefore reproduce the same
    loss sequence at {e any} worker count: a draw depends on which
    execution completed, never on how completions interleaved across
    domains.  Faulty runs can be asserted byte-identical to fault-free
    ones, and parallel runs to sequential ones. *)

(** A seed, a per-stage-completion event probability in [0, 1) and a
    per-stage execution budget (the first run included). *)
type spec

val default_attempts : int

(** [spec seed] with the default rate (0.15) and attempt budget.
    Raises [Invalid_argument] on a rate outside [0, 1) or a non-positive
    budget. *)
val spec : ?rate:float -> ?max_attempts:int -> int -> spec

(** The spec's per-stage execution budget. *)
val max_attempts : spec -> int

type event =
  | Lose_partition of { stage : int; machine : int }
      (** one cached partition of one stage output disappears *)
  | Kill_machine of int
      (** transient machine loss: that partition of every cached stage
          output disappears at once *)

type t

val create : machines:int -> spec -> t

(** [draw t ~stage ~attempt ~cached ~cached_count] is the events fired
    by the completion of attempt [attempt] of stage [stage].  The first
    [cached_count] entries of [cached] are the stage ids with a cached
    output (the just-completed stage included), in first-cached order.
    The result is a pure function of the arguments — independent of any
    previous draw. *)
val draw :
  t ->
  stage:int ->
  attempt:int ->
  cached:int array ->
  cached_count:int ->
  event list
