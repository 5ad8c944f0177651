(* Output checking against the reference evaluator.

   Reference outputs are computed once per distinct script, before any
   timed region, by [Sexec.Reference.run] over the script's bound DAG.
   The reference evaluator applies no ORDER BY and no output has a
   defined order among equal sort keys, so both sides are put in one
   canonical row order — by the output's ORDER BY columns, then by the
   whole row — and compared byte for byte with
   [Sexec.Validate.identical_outputs].  An ordered output must also
   arrive already sorted on its ORDER BY columns. *)

open Relalg

let compare_rows a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Row order of an ORDER BY specification over [schema]. *)
let compare_on schema order =
  let keys = List.map (fun (c, desc) -> (Schema.index c schema, desc)) order in
  fun a b ->
    List.fold_left
      (fun c (i, desc) ->
        if c <> 0 then c
        else
          let c = Value.compare a.(i) b.(i) in
          if desc then -c else c)
      0 keys

(* ORDER BY specification per OUTPUT file of the DAG. *)
let orders (dag : Slogical.Dag.t) =
  Array.to_list dag.Slogical.Dag.nodes
  |> List.filter_map (fun (n : Slogical.Dag.node) ->
         match n.Slogical.Dag.op with
         | Slogical.Logop.Output { file; order } -> Some (file, order)
         | _ -> None)

type expected = {
  orders : (string * (string * bool) list) list;
  outputs : (string * Table.t) list;
}

let canonical orders outputs =
  List.map
    (fun (file, (t : Table.t)) ->
      let order = Option.value ~default:[] (List.assoc_opt file orders) in
      let by_keys = compare_on t.Table.schema order in
      let cmp a b =
        let c = by_keys a b in
        if c <> 0 then c else compare_rows a b
      in
      (file, { t with Table.rows = List.sort cmp t.Table.rows }))
    outputs

let expected ~catalog (dag : Slogical.Dag.t) =
  let orders = orders dag in
  { orders; outputs = canonical orders (Sexec.Reference.run catalog dag) }

(* Reference outputs of a script text, bound on [catalog]. *)
let expected_of_text ~catalog text =
  expected ~catalog
    (Slogical.Binder.bind ~catalog (Slang.Parser.parse_script text))

let rec sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted cmp rest
  | _ -> true

let matches (e : expected) actual =
  List.for_all
    (fun (file, (t : Table.t)) ->
      match List.assoc_opt file e.orders with
      | Some (_ :: _ as order) ->
          sorted (compare_on t.Table.schema order) t.Table.rows
      | _ -> true)
    actual
  && Sexec.Validate.identical_outputs e.outputs (canonical e.orders actual)

(* [in_child f x] is [f x] computed in a forked child process and
   marshalled back.  Reference outputs are computed this way, so the
   reference evaluator's intermediate tables never enter this process's
   heap or its top-heap figure.  The benchmark spawns no domains, so
   forking is safe. *)
let in_child (type a b) (f : a -> b) (x : a) : b =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v : (b, string) result =
        try Ok (f x) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v : (b, string) result =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            ignore (Unix.waitpid [] pid))
          (fun () -> Marshal.from_channel ic)
      in
      match v with
      | Ok v -> v
      | Error msg -> failwith ("reference evaluation failed: " ^ msg))
