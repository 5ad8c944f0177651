(* Deterministic splitmix64 generator.

   All synthetic data, workload generation and property-based fixtures in
   this repository derive from this generator so that every experiment is
   reproducible bit-for-bit across runs and machines. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* Core splitmix64 step (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next t =
  (* truncate to OCaml's 63-bit int range, keeping the result non-negative *)
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 1) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (x /. 9007199254740992.0)

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t arr =
  let a = Array.copy arr in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
