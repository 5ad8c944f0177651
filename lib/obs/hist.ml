(* Log-bucketed histograms.  A histogram is a plain value; the registry
   that names it and gives it labels is a [Metrics.t].

   Observations land in power-of-two buckets chosen by the float's
   binary exponent ([Float.frexp]) — one array index computation, no
   allocation, no comparison ladder.  Buckets are [int Atomic.t]
   increments; the running sum, min and max are CAS loops over boxed
   float atomics.  All of it is safe to call concurrently from pool
   workers.

   Quantiles are read from the cumulative bucket counts and reported as
   the matched bucket's upper bound — an overestimate by at most 2x,
   which is the usual contract for log-bucketed histograms and plenty
   for "where did the time go" questions.  The tracked extremes are
   exact, and quantiles are clamped into [min, max]: an empty histogram
   reports 0 everywhere, and a single observation reports itself as
   both p50 and p90 rather than its bucket's boundary. *)

(* Bucket [k] covers [2^(k-41), 2^(k-40)); k = frexp exponent + 40,
   clamped.  Bucket 0 also absorbs zero and negative observations. *)
let nbuckets = 80
let bias = 40

let bucket_of v =
  if v <= 0.0 || not (Float.is_finite v) then if v > 0.0 then nbuckets - 1 else 0
  else
    let _, e = Float.frexp v in
    max 0 (min (nbuckets - 1) (e + bias))

let upper_bound k = Float.ldexp 1.0 (k - bias)

type t = {
  buckets : int Atomic.t array;
  sum : float Atomic.t;
  minv : float Atomic.t;
  maxv : float Atomic.t;
}

type summary = {
  count : int;
  sum : float;
  p50 : float;
  p90 : float;
  min : float;
  max : float;
  buckets : (float * int) list;  (* nonzero buckets: upper bound, count *)
}

let make () =
  {
    buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
    sum = Atomic.make 0.0;
    minv = Atomic.make infinity;
    maxv = Atomic.make neg_infinity;
  }

let rec cas_update a f =
  let cur = Atomic.get a in
  let next = f cur in
  if next <> cur && not (Atomic.compare_and_set a cur next) then cas_update a f

let observe (h : t) v =
  (* a NaN or infinite observation would poison the CAS-maintained
     extremes (Float.max nan _ = nan) and with them every later
     quantile; clamp it to the lowest bucket's value instead *)
  let v = if Float.is_finite v then v else 0.0 in
  Atomic.incr h.buckets.(bucket_of v);
  cas_update h.sum (fun s -> s +. v);
  cas_update h.minv (fun m -> Float.min m v);
  cas_update h.maxv (fun m -> Float.max m v)

let summarize (h : t) =
  let counts = Array.map Atomic.get h.buckets in
  let count = Array.fold_left ( + ) 0 counts in
  if count = 0 then
    { count = 0; sum = 0.0; p50 = 0.0; p90 = 0.0; min = 0.0; max = 0.0; buckets = [] }
  else begin
    let finite_or v fallback = if Float.is_finite v then v else fallback in
    let max = finite_or (Atomic.get h.maxv) 0.0 in
    let min = finite_or (Atomic.get h.minv) 0.0 in
    let quantile q =
      let target = Float.to_int (Float.round (q *. float_of_int count)) in
      let target = Stdlib.max 1 (Stdlib.min count target) in
      let k = ref 0 and cum = ref 0 in
      while !cum < target && !k < nbuckets do
        cum := !cum + counts.(!k);
        if !cum < target then incr k
      done;
      (* the bucket bound is only an upper estimate; the tracked extremes
         are exact, so no quantile may leave [min, max] — and with one
         observation both quantiles collapse to that exact value *)
      Float.max min (Float.min max (upper_bound !k))
    in
    let buckets = ref [] in
    for k = nbuckets - 1 downto 0 do
      if counts.(k) > 0 then buckets := (upper_bound k, counts.(k)) :: !buckets
    done;
    {
      count;
      sum = Atomic.get h.sum;
      p50 = quantile 0.5;
      p90 = quantile 0.9;
      min;
      max;
      buckets = !buckets;
    }
  end
