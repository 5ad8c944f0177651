(* Deterministic, schedule-independent fault injection for the staged
   executor.

   Real clusters lose spooled partitions and whole machines; SCOPE-style
   systems recover by recomputing the producing vertex.  This module
   draws such events deterministically — but unlike a single seeded
   stream consumed in completion order, every draw is keyed on
   [(seed, stage id, attempt)]: the completion of attempt [k] of stage
   [s] always sees the same dice, no matter how many other stages
   completed before it or on which worker domain it ran.  That is the
   property the parallel scheduler's determinism contract rests on —
   retry and loss counters are identical at any worker count, because
   the fault sequence is a function of the (deterministic) set of
   executions, not of their (schedule-dependent) interleaving.

   Events are drawn once per stage completion — the scheduler's barrier
   points — over the set of stage outputs cached so far, passed as a
   prefix of an incrementally-maintained array (first-cached order,
   itself deterministic under the wave schedule).  A [Kill_machine m]
   event models a transient machine loss: partition [m] of every cached
   stage output disappears at once. *)

type spec = { seed : int; rate : float; max_attempts : int }

let default_attempts = 16

let spec ?(rate = 0.15) ?(max_attempts = default_attempts) seed =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Faults.spec: rate must be in [0, 1)";
  if max_attempts < 1 then invalid_arg "Faults.spec: max_attempts must be >= 1";
  { seed; rate; max_attempts }

let max_attempts (s : spec) = s.max_attempts

type event =
  | Lose_partition of { stage : int; machine : int }
  | Kill_machine of int

type t = { seed : int; rate : float; machines : int }

let create ~machines (s : spec) =
  { seed = s.seed; rate = s.rate; machines }

(* Fold (seed, stage, attempt) into one well-spread splitmix64 seed.
   Collisions only correlate two draws statistically; determinism and
   schedule-independence hold for any mixing function. *)
let key_seed t ~stage ~attempt =
  let h = (t.seed * 0x9E3779B9) lxor (stage * 0x85EBCA6B) in
  (h * 0xC2B2AE35) lxor attempt

(* One Bernoulli(rate) trial per completion; a firing trial is a machine
   kill one time in four, a single-partition loss otherwise. *)
let draw t ~stage ~attempt ~cached ~cached_count =
  if cached_count = 0 || t.rate <= 0.0 then []
  else
    let rng = Sutil.Rng.create (key_seed t ~stage ~attempt) in
    if Sutil.Rng.float rng 1.0 >= t.rate then []
    else if Sutil.Rng.int rng 4 = 0 then
      [ Kill_machine (Sutil.Rng.int rng t.machines) ]
    else
      let stage = cached.(Sutil.Rng.int rng cached_count) in
      [ Lose_partition { stage; machine = Sutil.Rng.int rng t.machines } ]
