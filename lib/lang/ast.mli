(** Surface syntax of the SCOPE-like scripting language. *)

type expr =
  | Col_ref of string option * string
      (** column reference with an optional relation qualifier *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Call of string * expr list  (** aggregate or scalar function call *)
  | Star  (** only valid as the argument of Count *)
  | Binop of Relalg.Expr.binop * expr * expr
  | Cmp of Relalg.Expr.cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type select_item = { item : expr; alias : string option }

type source = { rel : string; src_alias : string option }

type query =
  | Extract of { cols : string list; file : string; extractor : string }
  | Select of {
      distinct : bool;
      items : select_item list;
      from : source list;
      joins : (source * expr * bool) list;
          (** explicit [LEFT] JOIN ... ON chains; the flag marks LEFT OUTER *)
      where : expr option;
      group_by : expr list;
      having : expr option;
    }
  | Union_all of string * string  (** union of two named relations *)

type order_item = { ocol : expr; descending : bool }

type stmt =
  | Assign of string * query
  | Output of { rel : string; file : string; order : order_item list }

type script = stmt list

(** Print a script in re-parseable form (print-then-parse is the
    identity). *)
val pp : script Fmt.t

val to_string : script -> string
