open Relalg
open Sphys

(* Columnar batches: one [Value.t array] per schema column plus an
   optional selection vector of live physical row indices (ascending).
   Operators are batch-at-a-time — a filter only narrows the selection
   vector, a project materializes new dense columns over the live rows,
   sort/aggregate/join kernels run over whole column arrays — so the
   per-row closure dispatch and schema walking of the old row-list
   engine disappear from the hot loops.

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
  sel : int array option;  (* live physical indices, ascending; None = all *)
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

(* Materialize the selection: gather live rows into dense columns. *)
let dense b =
  match b.sel with
  | None -> b
  | Some s ->
      let n = Array.length s in
      {
        schema = b.schema;
        len = n;
        cols = Array.map (fun col -> Array.map (fun i -> col.(i)) s) b.cols;
        sel = None;
      }

(* Concatenate live rows of [bs] in list order into one dense batch. *)
let concat schema bs =
  match bs with
  | [ b ] -> dense b
  | bs ->
      let bs = List.map dense bs in
      let n = List.fold_left (fun acc b -> acc + b.len) 0 bs in
      let arity = Schema.arity schema in
      let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
      let off = ref 0 in
      List.iter
        (fun b ->
          for c = 0 to arity - 1 do
            Array.blit b.cols.(c) 0 cols.(c) !off b.len
          done;
          off := !off + b.len)
        bs;
      { schema; len = n; cols; sel = None }

(* Chop into dense chunks of at most [size] live rows; empty batches are
   dropped.  Chunking never changes the row sequence, only its framing. *)
let split ~size b =
  let b = dense b in
  if b.len = 0 then []
  else if size <= 0 || b.len <= size then [ b ]
  else
    let rec go off acc =
      if off >= b.len then List.rev acc
      else
        let k = min size (b.len - off) in
        let chunk =
          {
            schema = b.schema;
            len = k;
            cols = Array.map (fun col -> Array.sub col off k) b.cols;
            sel = None;
          }
        in
        go (off + k) (chunk :: acc)
    in
    go 0 []

(* Columnar interpreter over [Expr.compiled]: same Value semantics and
   short-circuiting as [Expr.ceval], reading column arrays in place. *)
let rec eval_at cols p = function
  | Expr.CCol c -> cols.(c).(p)
  | Expr.CLit v -> v
  | Expr.CBinop (op, a, b) ->
      Expr.eval_binop op (eval_at cols p a) (eval_at cols p b)
  | Expr.CCmp (op, a, b) ->
      Expr.eval_cmp op (eval_at cols p a) (eval_at cols p b)
  | Expr.CAnd (a, b) ->
      if Value.is_truthy (eval_at cols p a) then eval_at cols p b
      else Value.Int 0
  | Expr.COr (a, b) ->
      if Value.is_truthy (eval_at cols p a) then Value.Int 1
      else eval_at cols p b
  | Expr.CNot a ->
      Value.Int (if Value.is_truthy (eval_at cols p a) then 0 else 1)

let pred_at cols p e = Value.is_truthy (eval_at cols p e)

(* Filter narrows the selection vector; column data is shared, untouched. *)
let filter pred b =
  let n = live b in
  if n = 0 then { b with sel = Some [||] }
  else begin
    let out = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = at b i in
      if pred_at b.cols p pred then begin
        out.(!k) <- p;
        incr k
      end
    done;
    { b with sel = Some (Array.sub out 0 !k) }
  end

(* Evaluate one output column per compiled item over the live rows.  A
   bare column reference needs no evaluation: on a dense input the column
   array is shared as-is (columns are immutable), on a filtered input it
   is gathered through the selection vector. *)
let project schema' items b =
  let n = live b in
  let cols' =
    Array.map
      (fun ce ->
        match (ce, b.sel) with
        | Expr.CCol c, None -> b.cols.(c)
        | Expr.CCol c, Some s -> Array.map (fun i -> b.cols.(c).(i)) s
        | ce, _ -> Array.init n (fun i -> eval_at b.cols (at b i) ce))
      items
  in
  { schema = schema'; len = n; cols = cols'; sel = None }

(* Output row [j] is input row [perm.(j)]. *)
let gather_rows b perm =
  { b with cols = Array.map (fun col -> Array.map (fun i -> col.(i)) perm) b.cols }

(* Output row [dst.(i)] is input row [i]; [dst] is a permutation.  The
   counting sort's placement yields this destination map directly, into
   its packed-key array; turning it into a [gather_rows] source
   permutation would take a third [n]-word scratch array, more than the
   single-key comparator path it replaced allocated. *)
let scatter_rows b dst =
  let scatter col =
    let out = Array.make b.len Value.Null in
    Array.iteri (fun i v -> out.(dst.(i)) <- v) col;
    out
  in
  { b with cols = Array.map scatter b.cols }

(* Counting sort takes over when the key span is at most this many
   times the row count.  At 1 its counts array is no longer than the
   row count, so the whole path allocates at most [2n + 1] words. *)
let counting_span_per_row = 1

(* A key tuple packs into one int in [0, span) when every key column is
   all-[Int] and the product of the per-key ranges is at most
   [max_span].  Returns each key's (column, direction, lo, hi, range),
   most significant first, and the span. *)
let pack_plan ~max_span keys b =
  let rec go acc span = function
    | [] -> Some (List.rev acc, span)
    | (c, dir) :: rest ->
        let col = b.cols.(c) in
        let lo = ref max_int and hi = ref min_int and ints = ref true in
        Array.iter
          (function
            | Value.Int x ->
                if x < !lo then lo := x;
                if x > !hi then hi := x
            | _ -> ints := false)
          col;
        let d = !hi - !lo in
        (* [d < 0] is the wrap-around of a range wider than [max_int];
           [d < max_span / span] keeps [span * (d + 1)] within [max_span] *)
        if (not !ints) || d < 0 || d >= max_span / span then None
        else go ((col, dir, !lo, !hi, d + 1) :: acc) (span * (d + 1)) rest
  in
  go [] 1 keys

(* Packed key of every row, in [0, span), with [Desc] digits as
   [hi - x]: int order on packed keys is the lexicographic,
   direction-adjusted [Value.compare] order on key tuples. *)
let pack plan n =
  let packed = Array.make n 0 in
  List.iter
    (fun (col, dir, lo, hi, range) ->
      for i = 0 to n - 1 do
        let x = match col.(i) with Value.Int x -> x | _ -> assert false in
        let digit =
          match dir with Sortorder.Asc -> x - lo | Sortorder.Desc -> hi - x
        in
        packed.(i) <- (packed.(i) * range) + digit
      done)
    plan;
  packed

(* Whether [le (i - 1) i] holds for every row [i] in [1, n). *)
let in_order n le =
  let rec go i = i >= n || (le (i - 1) i && go (i + 1)) in
  go 1

(* Lexicographic comparator over boxed values: the path for keys that
   are not all-[Int] or whose packed span is too wide to count. *)
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
   their input order, exactly like [List.stable_sort] over rows.  An
   input that is already sorted returns unchanged (the stable sort of a
   sorted sequence is the identity permutation).

   Integer keys whose span is at most [counting_span_per_row] times the
   row count are packed into one int per row (see [pack]) and counting
   sorted: rows are placed in input order within their key's slot, so
   ties keep input order.  Other keys, and wider spans, compare boxed
   values through [value_cmp]. *)
let sort keys b =
  let b = dense b in
  let n = b.len in
  if n <= 1 then b
  else
    match pack_plan ~max_span:(counting_span_per_row * n) keys b with
    | Some (plan, span) ->
        let packed = pack plan n in
        if in_order n (fun i j -> packed.(i) <= packed.(j)) then b
        else begin
          (* counts, prefix sums, then each row's destination in place *)
          let next = Array.make (span + 1) 0 in
          Array.iter (fun k -> next.(k + 1) <- next.(k + 1) + 1) packed;
          for k = 1 to span - 1 do
            next.(k) <- next.(k) + next.(k - 1)
          done;
          for i = 0 to n - 1 do
            let k = packed.(i) in
            packed.(i) <- next.(k);
            next.(k) <- next.(k) + 1
          done;
          scatter_rows b packed
        end
    | None ->
        let cmp = value_cmp keys b in
        if in_order n (fun i j -> cmp i j <= 0) then b
        else begin
          let perm = Array.init n Fun.id in
          Array.stable_sort cmp perm;
          gather_rows b perm
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
  let total = List.fold_left (fun acc (_, s) -> acc + Array.length s) 0 frags in
  let ncols = List.length schema in
  let cols = Array.init ncols (fun _ -> Array.make total Value.Null) in
  let off = ref 0 in
  List.iter
    (fun (src, s) ->
      let k = Array.length s in
      for c = 0 to ncols - 1 do
        let scol = src.cols.(c) and dcol = cols.(c) in
        for i = 0 to k - 1 do
          dcol.(!off + i) <- scol.(s.(i))
        done
      done;
      off := !off + k)
    frags;
  { schema; len = total; cols; sel = None }

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

(* Streaming aggregation over a batch list whose groups are contiguous
   across batch boundaries; one group's rows may span many batches, the
   carried state makes the result independent of the chunking.  Group
   keys are compared and emitted exactly as the row engine did: in
   arrival order, one output row per contiguous key run. *)
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
  let current = ref None in
  List.iter
    (fun b ->
      let n = live b in
      for i = 0 to n - 1 do
        let p = at b i in
        (* compare the row's key against the running group in place; a
           key array is only materialized when a new group starts, so
           the per-row cost is [nk] reads, not an allocation *)
        let same_key k0 =
          let rec eq c =
            c >= nk || (Value.equal k0.(c) b.cols.(key_idx.(c)).(p) && eq (c + 1))
          in
          eq 0
        in
        let states =
          match !current with
          | Some (k0, states) when same_key k0 -> states
          | prev ->
              (match prev with
              | Some (k0, states) -> flush k0 states
              | None -> ());
              let key = Array.map (fun c -> b.cols.(c).(p)) key_idx in
              let fresh = Array.init na (fun _ -> Agg.init ()) in
              current := Some (key, fresh);
              fresh
        in
        for a = 0 to na - 1 do
          Agg.step_value aggs.(a) states.(a) (eval_at b.cols p cargs.(a))
        done
      done)
    batches;
  (match !current with Some (k, states) -> flush k states | None -> ());
  {
    schema;
    len = !rows_out;
    cols = Array.map Vbuf.contents out;
    sel = None;
  }

(* Hash aggregation over a batch list, mirroring [Table.group_by]: keys
   hashed as [Value.t list]s, output rows in first-seen key order. *)
let hash_agg schema ~key_idx ~(aggs : Agg.t array) ~cargs batches =
  let nk = Array.length key_idx in
  let na = Array.length aggs in
  let tbl : (Value.t list, Agg.state array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun b ->
      let n = live b in
      for i = 0 to n - 1 do
        let p = at b i in
        let key =
          List.init nk (fun c -> b.cols.(key_idx.(c)).(p))
        in
        let states =
          match Hashtbl.find_opt tbl key with
          | Some states -> states
          | None ->
              let states = Array.init na (fun _ -> Agg.init ()) in
              Hashtbl.add tbl key states;
              order := key :: !order;
              states
        in
        for a = 0 to na - 1 do
          Agg.step_value aggs.(a) states.(a) (eval_at b.cols p cargs.(a))
        done
      done)
    batches;
  let groups = List.rev !order in
  let ngroups = List.length groups in
  let cols = Array.init (nk + na) (fun _ -> Array.make ngroups Value.Null) in
  List.iteri
    (fun g key ->
      let states = Hashtbl.find tbl key in
      List.iteri (fun c v -> cols.(c).(g) <- v) key;
      for a = 0 to na - 1 do
        cols.(nk + a).(g) <- Agg.finish aggs.(a) states.(a)
      done)
    groups;
  { schema; len = ngroups; cols; sel = None }

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
