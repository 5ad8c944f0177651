(** Expression fingerprints (Section IV, Definition 1):

    {v
F(E) = FileID mod N                          if E reads a file
F(E) = (OpID xor (xor_i F(child_i))) mod N   otherwise
    v}

    As in the paper, [OpID] identifies only the operator kind, so equal
    fingerprints are necessary-but-not-sufficient and colliding candidates
    are verified structurally (Algorithm 1, line 5).  [N] is the prime
    2{^61} - 1. *)

(** Fingerprint of an arbitrary string in the same [\[0, N)] space as
    the expression fingerprints: two independent polynomial hashes over
    sub-2{^30} primes, recombined — overflow-free on 63-bit ints.  The
    serve-mode plan cache labels its entries with [hash_string] of the
    normalized script text (plus the catalog version); like any
    fingerprint it can collide, so the cache looks entries up by the
    text itself. *)
val hash_string : string -> int

(** Fingerprints of every reachable group, computed bottom-up from each
    group's single initial expression. *)
val of_memo : Smemo.Memo.t -> (int, int) Hashtbl.t

(** Structural equality of two memo subexpressions (operators compared
    with full parameters, children recursively). *)
val equal_subexpr : Smemo.Memo.t -> int -> int -> bool
