(* Line-oriented submission protocol for the serve loop.

   Directives start with [#] in column zero:

     #script <id>      begin a script; following lines are script text
     #end              end the current script
     #batch            flush pending scripts as one batch
     #tenant <name>    attribute following scripts to this tenant
     #catalog-bump     advance the statistics epoch (invalidates cache)
     #stats            emit a live metrics snapshot
     #dump             dump the flight recorder
     #quit             stop reading
     ## ...            comment, ignored

   Blank lines between scripts are ignored; script bodies keep theirs
   (the parser does not care).  EOF outside a script implies a final
   flush (the caller's job); EOF inside one is a protocol error, as is
   any stray text or unknown directive — a malformed stream should fail
   loudly, not silently drop a submission. *)

type item =
  | Script of { id : string; text : string }
  | Flush
  | Tenant of string
  | Catalog_bump
  | Stats
  | Dump
  | Quit

exception Protocol_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let is_blank s = String.trim s = ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One item from a pull-based line source; [None] at end of stream.  A
   [#script] block is consumed whole. *)
let next_item (next : unit -> string option) : item option =
  let rec directive () =
    match next () with
    | None -> None
    | Some line ->
        if is_blank line || starts_with ~prefix:"##" line then directive ()
        else if starts_with ~prefix:"#script" line then (
          let id = String.trim (String.sub line 7 (String.length line - 7)) in
          if id = "" then err "#script requires an id";
          let buf = Buffer.create 256 in
          let rec body () =
            match next () with
            | None -> err "end of stream inside #script %s (missing #end)" id
            | Some l when String.trim l = "#end" ->
                Some (Script { id; text = Buffer.contents buf })
            | Some l
              when starts_with ~prefix:"#" l
                   && not (starts_with ~prefix:"##" l) ->
                err "directive %S inside #script %s (missing #end)" l id
            | Some l ->
                Buffer.add_string buf l;
                Buffer.add_char buf '\n';
                body ()
          in
          body ())
        else if starts_with ~prefix:"#tenant" line then (
          let name =
            String.trim (String.sub line 7 (String.length line - 7))
          in
          if name = "" then err "#tenant requires a name";
          Some (Tenant name))
        else
          let d = String.trim line in
          if d = "#batch" then Some Flush
          else if d = "#catalog-bump" then Some Catalog_bump
          else if d = "#stats" then Some Stats
          else if d = "#dump" then Some Dump
          else if d = "#quit" then Some Quit
          else if starts_with ~prefix:"#" line then
            err "unknown directive %S" line
          else err "stray text outside a #script block: %S" line
  in
  directive ()

let read ic = next_item (fun () -> In_channel.input_line ic)

let of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  let next () =
    match !lines with
    | [] -> None
    | l :: rest ->
        lines := rest;
        Some l
  in
  fun () -> next_item next

let items_of_string s =
  let next = of_string s in
  let rec all acc =
    match next () with None -> List.rev acc | Some it -> all (it :: acc)
  in
  all []
