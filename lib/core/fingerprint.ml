(* Expression fingerprints (Section IV, Definition 1).

     F(E) = FileID mod N                      if E reads a file
     F(E) = (OpID xor (xor_i F(child_i))) mod N   otherwise

   As in the paper, OpID identifies only the operator *kind* (all group-bys
   share an OpID), so equal fingerprints are a necessary-but-not-sufficient
   signal and colliding candidates are verified structurally
   (Algorithm 1, line 5). *)

(* Large Mersenne prime: comfortably below OCaml's 63-bit int range and
   large enough that FileIDs and OpIDs cannot collide. *)
let modulus = (1 lsl 61) - 1

let file_id file = (Hashtbl.hash file * 2654435761) land max_int

(* Spread operator-kind ids so that xors of small integers do not collide
   trivially. *)
let op_id op = (Slogical.Logop.op_id op * 0x9E3779B9) land max_int

(* Text fingerprints for the serve-mode plan cache: two independent
   polynomial hashes over sub-2^30 primes (so every intermediate product
   stays well inside the 63-bit native range) recombined into the same
   [modulus] space as the expression fingerprints above. *)
let hp1 = 1_073_741_789
let hp2 = 1_073_741_783

let hash_string s =
  let h1 = ref 17 and h2 = ref 31 in
  String.iter
    (fun ch ->
      let c = Char.code ch in
      h1 := ((!h1 * 131) + c) mod hp1;
      h2 := ((!h2 * 137) + c) mod hp2)
    s;
  ((!h1 * hp2) + !h2) mod modulus

(* Fingerprints of every reachable memo group, computed bottom-up from the
   single initial expression each group holds at this stage. *)
let of_memo (memo : Smemo.Memo.t) : (int, int) Hashtbl.t =
  let fps : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec fp gid =
    match Hashtbl.find_opt fps gid with
    | Some f -> f
    | None ->
        let g = Smemo.Memo.group memo gid in
        let e = List.hd g.Smemo.Memo.exprs in
        let f =
          match e.Smemo.Memo.mop with
          | Slogical.Logop.Extract { file; _ } -> file_id file mod modulus
          | op ->
              let children_xor =
                List.fold_left
                  (fun acc c -> acc lxor fp c)
                  0 e.Smemo.Memo.children
              in
              (op_id op lxor children_xor) mod modulus
        in
        Hashtbl.replace fps gid f;
        f
  in
  ignore (fp memo.Smemo.Memo.root);
  fps

(* Structural equality of two memo subexpressions (the verification step
   for colliding fingerprints).  Operators are compared with their full
   parameters, children recursively. *)
let rec equal_subexpr (memo : Smemo.Memo.t) a b =
  a = b
  ||
  let ga = Smemo.Memo.group memo a and gb = Smemo.Memo.group memo b in
  let ea = List.hd ga.Smemo.Memo.exprs
  and eb = List.hd gb.Smemo.Memo.exprs in
  ea.Smemo.Memo.mop = eb.Smemo.Memo.mop
  && List.length ea.Smemo.Memo.children = List.length eb.Smemo.Memo.children
  && List.for_all2 (equal_subexpr memo) ea.Smemo.Memo.children
       eb.Smemo.Memo.children
