(** Line-oriented submission protocol for the serve loop.

    {v
#script <id>      begin a script; following lines are its text
#end              end the current script
#batch            flush pending scripts as one batch
#tenant <name>    attribute following scripts to this tenant
#catalog-bump     advance the statistics epoch (invalidates the cache)
#stats            emit a live metrics snapshot
#dump             dump the flight recorder
#quit             stop reading
## ...            comment, ignored
    v}

    Blank lines between scripts are ignored.  Stray text, unknown
    directives, and end-of-stream inside a script raise
    {!Protocol_error}; end-of-stream between scripts is a normal end
    (callers flush whatever is pending). *)

type item =
  | Script of { id : string; text : string }
  | Flush
  | Tenant of string  (** applies to all following scripts *)
  | Catalog_bump
  | Stats
  | Dump
  | Quit

exception Protocol_error of string

(** Next item from a channel; [None] at end of stream.  A [#script]
    block is consumed whole. *)
val read : in_channel -> item option

(** Items of a stream held in a string, one per call, like {!read}:
    a malformed item raises when it is reached. *)
val of_string : string -> unit -> item option

(** Parse a whole stream held in a string (generators, tests). *)
val items_of_string : string -> item list
