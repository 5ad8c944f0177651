open Relalg
open Sphys

(* Columnar batches: one [Value.t array] per schema column plus an
   optional selection vector of live physical row indices, in live
   order.  Row order and row subsets travel in the selection vector, not
   in column data: a filter narrows it, a sort permutes it, a projection
   of bare columns and a split keep or slice it, all over the same
   column arrays (columns are immutable).  Kernels that compute new
   values (computed projections, aggregation, join), [concat] and the
   exchange's receive side write dense batches.  Every kernel reads
   rows through [at], so no per-row closure dispatch or schema walk
   sits in the hot loops.

   Row-order discipline: every kernel preserves (or deterministically
   defines) the *live-row order* of its inputs, and the live order of a
   batch list is batch order then selection order within each batch.
   Because each kernel's output order matches what the row-at-a-time
   engine produced row-by-row, a stream's row sequence is independent of
   how it happens to be chunked into batches — the executor's
   byte-identical-at-any-batch-size contract reduces to this module's
   per-kernel order guarantees. *)

type t = {
  schema : Schema.t;
  len : int;  (* physical rows in [cols] *)
  cols : Value.t array array;  (* cols.(c).(i): column c of physical row i *)
  sel : int array option;
      (* live physical indices in live order, distinct, not necessarily
         ascending; None = every row, in physical order *)
}

let live b = match b.sel with Some s -> Array.length s | None -> b.len

(* Physical index of the [i]-th live row. *)
let[@inline] at b i = match b.sel with Some s -> s.(i) | None -> i

let of_rows schema rows =
  let len = List.length rows in
  let arity = Schema.arity schema in
  let cols = Array.init arity (fun _ -> Array.make len Value.Null) in
  List.iteri
    (fun i row ->
      for c = 0 to arity - 1 do
        cols.(c).(i) <- row.(c)
      done)
    rows;
  { schema; len; cols; sel = None }

let to_rows b =
  let arity = Array.length b.cols in
  let row i = Array.init arity (fun c -> b.cols.(c).(i)) in
  match b.sel with
  | None -> List.init b.len row
  | Some s -> Array.to_list (Array.map row s)

(* Concatenate live rows of [bs] in list order into one dense batch: one
   copy per live row, read through each selection.  A lone dense batch
   comes back as is. *)
let concat schema bs =
  match bs with
  | [ ({ sel = None; _ } as b) ] -> b
  | bs ->
      let n = List.fold_left (fun acc b -> acc + live b) 0 bs in
      let arity = Schema.arity schema in
      let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
      let off = ref 0 in
      List.iter
        (fun b ->
          let k = live b in
          for c = 0 to arity - 1 do
            let src = b.cols.(c) and dst = cols.(c) in
            match b.sel with
            | None -> Array.blit src 0 dst !off k
            | Some s ->
                for i = 0 to k - 1 do
                  dst.(!off + i) <- src.(s.(i))
                done
          done;
          off := !off + k)
        bs;
      { schema; len = n; cols; sel = None }

(* Materialize the selection: live rows into dense columns. *)
let dense b = concat b.schema [ b ]

(* Chunks of at most [size] live rows; empty batches are dropped.  A
   larger batch is cut into consecutive slices of its selection, all
   sharing its columns.  Chunking never changes the row sequence, only
   its framing. *)
let split ~size b =
  let n = live b in
  if n = 0 then []
  else if size <= 0 || n <= size then [ b ]
  else
    List.init
      ((n + size - 1) / size)
      (fun j ->
        let off = j * size in
        let k = min size (n - off) in
        let sel =
          match b.sel with
          | Some s -> Array.sub s off k
          | None -> Array.init k (fun i -> off + i)
        in
        { b with sel = Some sel })

(* Columnar interpreter over [Expr.compiled]: same Value semantics and
   short-circuiting as [Expr.ceval], reading column arrays in place.
   [holds] is its truthiness, [Value.is_truthy (eval_at cols p e)],
   computed without boxing an [Int 0/1] for comparisons and connectives. *)
let rec eval_at cols p = function
  | Expr.CCol c -> cols.(c).(p)
  | Expr.CLit v -> v
  | Expr.CBinop (op, a, b) ->
      Expr.eval_binop op (eval_at cols p a) (eval_at cols p b)
  | Expr.CCmp (op, a, b) ->
      Expr.eval_cmp op (eval_at cols p a) (eval_at cols p b)
  | Expr.CAnd (a, b) -> if holds cols p a then eval_at cols p b else Value.Int 0
  | Expr.COr (a, b) -> if holds cols p a then Value.Int 1 else eval_at cols p b
  | Expr.CNot a -> if holds cols p a then Value.Int 0 else Value.Int 1

and holds cols p = function
  | Expr.CCmp (op, a, b) ->
      Expr.cmp_holds op (eval_at cols p a) (eval_at cols p b)
  | Expr.CAnd (a, b) -> holds cols p a && holds cols p b
  | Expr.COr (a, b) -> holds cols p a || holds cols p b
  | Expr.CNot a -> not (holds cols p a)
  | e -> Value.is_truthy (eval_at cols p e)

(* Filter narrows the selection vector; column data is shared, untouched.
   A batch whose every live row passes comes back as is. *)
let filter pred b =
  let n = live b in
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let p = at b i in
    if holds b.cols p pred then begin
      out.(!k) <- p;
      incr k
    end
  done;
  if !k = n then b else { b with sel = Some (Array.sub out 0 !k) }

(* Evaluate one output column per compiled item over the live rows.  A
   projection of bare columns shares the input's column arrays and keeps
   its selection.  Otherwise the output is dense: a bare column of a
   dense input is still shared, every other column is evaluated through
   the selection. *)
let project schema' items b =
  let bare = Array.for_all (function Expr.CCol _ -> true | _ -> false) items in
  let n = live b in
  let column = function
    | Expr.CCol c when bare || Option.is_none b.sel -> b.cols.(c)
    | ce -> Array.init n (fun i -> eval_at b.cols (at b i) ce)
  in
  let cols = Array.map column items in
  if bare then { schema = schema'; len = b.len; cols; sel = b.sel }
  else { schema = schema'; len = n; cols; sel = None }

(* Counting sort takes over when the key span is at most this many
   times the live row count.  At 1 its counts array is no longer than
   the row count. *)
let counting_span_per_row = 1

(* Packed key of every live row, in live order, with the span: when
   every key column is all-[Int] over the live rows and the product of
   the per-key ranges is at most [counting_span_per_row] times the live
   count, each key tuple packs into one int in [0, span), most
   significant key first, [Desc] digits as [hi - x].  Int order on
   packed keys is then the lexicographic, direction-adjusted
   [Value.compare] order on key tuples. *)
let packed_keys keys b =
  let n = live b in
  let max_span = counting_span_per_row * n in
  let rec plan acc span = function
    | [] -> Some (List.rev acc, span)
    | (c, dir) :: rest ->
        let col = b.cols.(c) in
        let lo = ref max_int and hi = ref min_int and ints = ref true in
        for i = 0 to n - 1 do
          match col.(at b i) with
          | Value.Int x ->
              if x < !lo then lo := x;
              if x > !hi then hi := x
          | _ -> ints := false
        done;
        let d = !hi - !lo in
        (* [d < 0] is the wrap-around of a range wider than [max_int];
           [d < max_span / span] keeps [span * (d + 1)] within [max_span] *)
        if (not !ints) || d < 0 || d >= max_span / span then None
        else plan ((col, dir, !lo, !hi, d + 1) :: acc) (span * (d + 1)) rest
  in
  match plan [] 1 keys with
  | None -> None
  | Some (plan, span) ->
      let packed = Array.make n 0 in
      List.iter
        (fun (col, dir, lo, hi, range) ->
          for i = 0 to n - 1 do
            let x =
              match col.(at b i) with Value.Int x -> x | _ -> assert false
            in
            let digit =
              match dir with Sortorder.Asc -> x - lo | Sortorder.Desc -> hi - x
            in
            packed.(i) <- (packed.(i) * range) + digit
          done)
        plan;
      Some (packed, span)

(* Whether [le (i - 1) i] holds for every row [i] in [1, n). *)
let in_order n le =
  let rec go i = i >= n || (le (i - 1) i && go (i + 1)) in
  go 1

(* Lexicographic comparator on physical row indices over boxed values:
   the path for keys that are not all-[Int] or whose packed span is too
   wide to count. *)
let value_cmp keys b =
  let cols = Array.of_list (List.map (fun (c, _) -> b.cols.(c)) keys) in
  let desc = Array.of_list (List.map (fun (_, d) -> d = Sortorder.Desc) keys) in
  let nk = Array.length cols in
  fun i j ->
    let rec go k =
      if k = nk then 0
      else
        let r = Value.compare cols.(k).(i) cols.(k).(j) in
        if r <> 0 then if desc.(k) then -r else r else go (k + 1)
    in
    go 0

(* Stable sort on precomputed (column index, direction) keys: ties keep
   their live order, exactly like [List.stable_sort] over rows.  The
   result is the input's columns with the sorted permutation of its live
   physical indices as selection; no column data moves.  An input that
   is already sorted returns unchanged.

   Packable keys (see [packed_keys]) are counting sorted: each live row
   is placed at its key's next free slot, in live order, so ties keep
   input order.  Other keys stable-sort the permutation through
   [value_cmp]. *)
let sort keys b =
  let n = live b in
  if n <= 1 then b
  else
    match packed_keys keys b with
    | Some (packed, span) ->
        if in_order n (fun i j -> packed.(i) <= packed.(j)) then b
        else begin
          (* counts, prefix sums, then each live row into its slot *)
          let next = Array.make (span + 1) 0 in
          Array.iter (fun k -> next.(k + 1) <- next.(k + 1) + 1) packed;
          for k = 1 to span - 1 do
            next.(k) <- next.(k) + next.(k - 1)
          done;
          let perm = Array.make n 0 in
          for i = 0 to n - 1 do
            let k = packed.(i) in
            perm.(next.(k)) <- at b i;
            next.(k) <- next.(k) + 1
          done;
          { b with sel = Some perm }
        end
    | None ->
        let cmp = value_cmp keys b in
        if in_order n (fun i j -> cmp (at b i) (at b j) <= 0) then b
        else begin
          let perm = Array.init n (at b) in
          Array.stable_sort cmp perm;
          { b with sel = Some perm }
        end

(* Route each live row to [(17 + sum of per-key Value.hash) mod machines]
   — the same commutative hash the row engine used.  Returns one
   physical-index array per destination, in input row order: a selection
   into [b], no column data copied. *)
let scatter_sel ~machines key_idx b =
  let n = live b in
  let dst = Array.make (max n 1) 0 in
  let counts = Array.make machines 0 in
  for i = 0 to n - 1 do
    let p = at b i in
    let h = ref 17 in
    Array.iter (fun c -> h := !h + Value.hash b.cols.(c).(p)) key_idx;
    let m = (!h land max_int) mod machines in
    dst.(i) <- m;
    counts.(m) <- counts.(m) + 1
  done;
  let sels = Array.map (fun c -> Array.make c 0) counts in
  let cur = Array.make machines 0 in
  for i = 0 to n - 1 do
    let m = dst.(i) in
    sels.(m).(cur.(m)) <- at b i;
    cur.(m) <- cur.(m) + 1
  done;
  sels

(* One dense batch from (source batch, physical indices) fragments, rows
   in fragment order — the single copy of an exchange's receive side. *)
let gather schema (frags : (t * int array) list) =
  concat schema (List.map (fun (src, s) -> { src with sel = Some s }) frags)

(* Growable column buffer for kernels with data-dependent output size. *)
module Vbuf = struct
  type t = { mutable a : Value.t array; mutable n : int }

  let create () = { a = Array.make 16 Value.Null; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) Value.Null in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* Whether physical row [p] of [cols] carries the group key [key] in its
   [key_idx] columns, from key position [c] on.  Top-level, so the
   per-row comparison allocates no closure. *)
let rec same_key key key_idx cols p c =
  c >= Array.length key_idx
  || Value.equal key.(c) cols.(key_idx.(c)).(p)
     && same_key key key_idx cols p (c + 1)

(* Streaming aggregation over a batch list whose groups are contiguous
   across batch boundaries; one group's rows may span many batches, the
   carried state makes the result independent of the chunking.  Group
   keys are compared and emitted exactly as the row engine did: in
   arrival order, one output row per contiguous key run.  A key array
   and its states are built only when a group starts; each row costs
   [nk] reads to compare. *)
let stream_agg schema ~key_idx ~(aggs : Agg.t array) ~cargs batches =
  let nk = Array.length key_idx in
  let na = Array.length aggs in
  let out = Array.init (nk + na) (fun _ -> Vbuf.create ()) in
  let rows_out = ref 0 in
  let flush key states =
    for c = 0 to nk - 1 do
      Vbuf.push out.(c) key.(c)
    done;
    for a = 0 to na - 1 do
      Vbuf.push out.(nk + a) (Agg.finish aggs.(a) states.(a))
    done;
    incr rows_out
  in
  let started = ref false and key = ref [||] and states = ref [||] in
  List.iter
    (fun b ->
      for i = 0 to live b - 1 do
        let p = at b i in
        if not (!started && same_key !key key_idx b.cols p 0) then begin
          if !started then flush !key !states;
          started := true;
          key := Array.map (fun c -> b.cols.(c).(p)) key_idx;
          states := Array.init na (fun _ -> Agg.init ())
        end;
        let states = !states in
        for a = 0 to na - 1 do
          Agg.step_value aggs.(a) states.(a) (eval_at b.cols p cargs.(a))
        done
      done)
    batches;
  if !started then flush !key !states;
  {
    schema;
    len = !rows_out;
    cols = Array.map Vbuf.contents out;
    sel = None;
  }

(* Predicate over a (left row, right row) pair: combined-schema column
   positions below the left arity read the left batch, the rest the
   right — no per-pair row materialization. *)
let rec eval2 larity lcols li rcols ri = function
  | Expr.CCol c ->
      if c < larity then lcols.(c).(li) else rcols.(c - larity).(ri)
  | Expr.CLit v -> v
  | Expr.CBinop (op, a, b) ->
      Expr.eval_binop op
        (eval2 larity lcols li rcols ri a)
        (eval2 larity lcols li rcols ri b)
  | Expr.CCmp (op, a, b) ->
      Expr.eval_cmp op
        (eval2 larity lcols li rcols ri a)
        (eval2 larity lcols li rcols ri b)
  | Expr.CAnd (a, b) ->
      if Value.is_truthy (eval2 larity lcols li rcols ri a) then
        eval2 larity lcols li rcols ri b
      else Value.Int 0
  | Expr.COr (a, b) ->
      if Value.is_truthy (eval2 larity lcols li rcols ri a) then Value.Int 1
      else eval2 larity lcols li rcols ri b
  | Expr.CNot a ->
      Value.Int
        (if Value.is_truthy (eval2 larity lcols li rcols ri a) then 0 else 1)

(* Nested-loop join with the row engine's exact output order: for each
   left row in order, every matching right row in right order;
   [`Left_outer] pads an unmatched left row with nulls.  The predicate
   is compiled against the combined schema (left @ right). *)
let join ~kind pred l r =
  let l = dense l and r = dense r in
  let larity = Array.length l.cols in
  let lis = ref (Array.make 64 0) in
  let ris = ref (Array.make 64 0) in
  let k = ref 0 in
  let push li ri =
    if !k = Array.length !lis then begin
      let grow a =
        let a' = Array.make (2 * !k) 0 in
        Array.blit a 0 a' 0 !k;
        a'
      in
      lis := grow !lis;
      ris := grow !ris
    end;
    !lis.(!k) <- li;
    !ris.(!k) <- ri;
    incr k
  in
  for li = 0 to l.len - 1 do
    let matched = ref false in
    for ri = 0 to r.len - 1 do
      if Value.is_truthy (eval2 larity l.cols li r.cols ri pred) then begin
        matched := true;
        push li ri
      end
    done;
    if (not !matched) && kind = `Left_outer then push li (-1)
  done;
  let n = !k in
  let lis = !lis and ris = !ris in
  let lcols = Array.map (fun col -> Array.init n (fun i -> col.(lis.(i)))) l.cols in
  let rcols =
    Array.map
      (fun col ->
        Array.init n (fun i ->
            let ri = ris.(i) in
            if ri < 0 then Value.Null else col.(ri)))
      r.cols
  in
  {
    schema = l.schema @ r.schema;
    len = n;
    cols = Array.append lcols rcols;
    sel = None;
  }
