(** Script normalization for the serve-mode plan cache.

    Submissions that differ only in whitespace, comments, assigned
    relation names or source aliases normalize to the same script, so
    they share one cache entry and — because the binder leaks source
    aliases into multi-source physical column names — produce
    structurally identical DAGs that the combined-memo fingerprint pass
    can merge across scripts.  Output-visible names (select-item
    aliases, ORDER BY columns) are untouched. *)

(** Parse, then normalize the parsed script.  Raises whatever the parser raises on
    malformed input. *)
val parse : string -> Slang.Ast.script

(** Re-parseable canonical text — the string the plan cache keys on. *)
val to_text : Slang.Ast.script -> string

(** Number of OUTPUT statements (the per-session slice width when
    splitting a combined run's outputs). *)
val outputs_of : Slang.Ast.script -> int

(** [combine scripts] concatenates normalized per-session scripts into
    one script that binds under a single root: relation names get a
    per-session [_s<i>] prefix, OUTPUT files a [_s<i>:] tag (so no two
    sessions' OUTPUT statements can merge into one memo group), and
    shared inputs still fingerprint-merge across sessions. *)
val combine : Slang.Ast.script list -> Slang.Ast.script

(** Strip the [_s<i>:] tag {!combine} put on an output file name;
    untagged names pass through. *)
val untag_output : string -> string
