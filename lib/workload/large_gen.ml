open Relalg

(* Generator for large scripts with the published structural statistics of
   the paper's real-world workloads:

     LS1: 101 operators in the initial DAG; 4 shared groups
          (3 with 2 consumers, 1 with 3 consumers)
     LS2: 1034 operators; 17 shared groups
          (15 with 2 consumers, 1 with 4, 1 with 5)

   A script is a set of *shared modules* (an extraction aggregated once and
   consumed by k further aggregations, one of them expressed as a textual
   duplicate so the fingerprint pass has real work to do) plus *filler
   pipelines* (single-consumer aggregation chains) sized to hit the exact
   operator count. *)

type spec = {
  name : string;
  (* consumer multiplicities of the shared groups, e.g. [2;2;2;3] *)
  shared_consumers : int list;
  (* operators in the initial DAG (before any CSE rewriting) *)
  target_ops : int;
  (* which shared modules (by index) are written as textual duplicates
     instead of named reuse *)
  duplicate_modules : int list;
  (* synthetic input sizes: the paper's scripts process unknown data, so
     the relative weight of shared modules vs single-consumer pipelines is
     a calibration knob (documented in EXPERIMENTS.md) *)
  shared_rows : int;
  filler_rows : int;
}

let ls1_spec =
  {
    name = "LS1";
    shared_consumers = [ 2; 2; 2; 3 ];
    target_ops = 101;
    duplicate_modules = [ 1 ];
    shared_rows = 50_000_000;
    filler_rows = 145_000_000;
  }

let ls2_spec =
  {
    name = "LS2";
    shared_consumers =
      [ 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 4; 5 ];
    target_ops = 1034;
    duplicate_modules = [ 3; 9 ];
    shared_rows = 50_000_000;
    filler_rows = 4_000_000;
  }

let consumer_keys =
  [| "A,B"; "B,C"; "A,C"; "A"; "B"; "C" |]

let buf_add = Buffer.add_string

(* One shared module: base aggregation over an extraction, consumed by [k]
   further aggregations.  Cost in initial-DAG operators:
   normal module: 1 extract + 1 GB + k (GB + Output) = 2 + 2k
   duplicated module: the base is written twice = 4 + 2k (the fingerprint
   pass merges the copies back into one shared group). *)
let emit_shared_module buf ~prefix ~file ~k ~duplicate =
  let base i = Printf.sprintf "%s_base%d" prefix i in
  if duplicate then begin
    buf_add buf
      (Printf.sprintf
         "%s0a = EXTRACT A,B,C,D FROM \"%s\" USING LogExtractor;\n" prefix file);
    buf_add buf
      (Printf.sprintf
         "%s0b = EXTRACT A,B,C,D FROM \"%s\" USING LogExtractor;\n" prefix file);
    buf_add buf
      (Printf.sprintf "%s = SELECT A,B,C,Sum(D) AS S FROM %s0a GROUP BY A,B,C;\n"
         (base 0) prefix);
    buf_add buf
      (Printf.sprintf "%s = SELECT A,B,C,Sum(D) AS S FROM %s0b GROUP BY A,B,C;\n"
         (base 1) prefix)
  end
  else begin
    buf_add buf
      (Printf.sprintf
         "%s0 = EXTRACT A,B,C,D FROM \"%s\" USING LogExtractor;\n" prefix file);
    buf_add buf
      (Printf.sprintf "%s = SELECT A,B,C,Sum(D) AS S FROM %s0 GROUP BY A,B,C;\n"
         (base 0) prefix)
  end;
  for j = 0 to k - 1 do
    let keys = consumer_keys.(j mod Array.length consumer_keys) in
    let src = if duplicate && j = 1 then base 1 else base 0 in
    buf_add buf
      (Printf.sprintf "%sC%d = SELECT %s,Sum(S) AS T%d FROM %s GROUP BY %s;\n"
         prefix j keys j src keys);
    buf_add buf
      (Printf.sprintf "OUTPUT %sC%d TO \"%s_out%d\";\n" prefix j prefix j)
  done

let module_ops ~k ~duplicate = (if duplicate then 4 else 2) + (2 * k)

(* One filler pipeline with [g] chained aggregations:
   1 extract + g GBs + 1 output = g + 2 operators. *)
let emit_filler buf ~prefix ~file ~g =
  buf_add buf
    (Printf.sprintf "%s0 = EXTRACT A,B,C,D FROM \"%s\" USING LogExtractor;\n"
       prefix file);
  buf_add buf
    (Printf.sprintf "%s1 = SELECT A,B,Sum(D) AS S FROM %s0 GROUP BY A,B;\n"
       prefix prefix);
  for i = 2 to g do
    buf_add buf
      (Printf.sprintf "%s%d = SELECT A,B,Sum(S) AS S FROM %s%d GROUP BY A,B;\n"
         prefix i prefix (i - 1))
  done;
  buf_add buf (Printf.sprintf "OUTPUT %s%d TO \"%s_out\";\n" prefix g prefix)

(* Split [n] operators into filler pipelines of 3..9 operators each
   (i.e. chain lengths 1..7). *)
let filler_sizes n =
  let rec go n acc =
    if n = 0 then List.rev acc
    else if n <= 9 && n >= 3 then List.rev ((n - 2) :: acc)
    else if n > 9 then
      (* leave at least 3 for the final pipeline *)
      let take = if n - 7 >= 3 then 7 else n - 3 in
      go (n - take) ((take - 2) :: acc)
    else
      (* n = 1 or 2: fold into the previous pipeline *)
      match acc with
      | g :: rest -> List.rev ((g + n) :: rest)
      | [] -> invalid_arg "filler_sizes: target too small"
  in
  if n = 0 then [] else go n []

(* Register realistic statistics for every file a generated script reads:
   aggregation reduces, and single columns keep the cluster busy. *)
let register_files ~shared_rows ~filler_rows (catalog : Catalog.t)
    (script : string) =
  (* scan for string literals; every extension-free literal is a generated
     input file *)
  let n = String.length script in
  let is_filler file =
    (* filler pipelines read "<name>_fillN" files *)
    let rec contains i =
      i + 5 <= String.length file
      && (String.sub file i 5 = "_fill" || contains (i + 1))
    in
    contains 0
  in
  let register file =
    if String.length file > 0 && not (String.contains file '.') then
      let rows = if is_filler file then filler_rows else shared_rows in
      Catalog.register catalog
        (Catalog.mk_file ~path:file ~rows ~row_bytes:100
           [
             ("A", Schema.Tint, 60);
             ("B", Schema.Tint, 1000);
             ("C", Schema.Tint, 60);
             ("D", Schema.Tint, 1_000_000);
           ])
  in
  let rec scan i =
    if i < n then
      if script.[i] = '"' then begin
        match String.index_from_opt script (i + 1) '"' with
        | None -> ()
        | Some j ->
            register (String.sub script (i + 1) (j - i - 1));
            scan (j + 1)
      end
      else scan (i + 1)
  in
  scan 0

let generate (spec : spec) : string =
  let buf = Buffer.create 4096 in
  let low = String.lowercase_ascii spec.name in
  let used = ref 1 (* the Sequence root *) in
  List.iteri
    (fun i k ->
      let duplicate = List.mem i spec.duplicate_modules in
      emit_shared_module buf
        ~prefix:(Printf.sprintf "M%d" i)
        ~file:(Printf.sprintf "%s_log%d" low i)
        ~k ~duplicate;
      used := !used + module_ops ~k ~duplicate)
    spec.shared_consumers;
  let remaining = spec.target_ops - !used in
  if remaining < 0 then
    invalid_arg
      (Printf.sprintf "Large_gen: target %d too small (modules need %d)"
         spec.target_ops !used);
  List.iteri
    (fun i g ->
      emit_filler buf
        ~prefix:(Printf.sprintf "F%d" i)
        ~file:(Printf.sprintf "%s_fill%d" low i)
        ~g)
    (filler_sizes remaining);
  Buffer.contents buf
