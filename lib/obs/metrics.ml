(* A typed registry of named counters, gauges and histograms with label
   sets.  Instruments live in an explicit registry value (one per serve
   engine, one per executor) instead of a process-global table, so tests
   and long-running engines read their own metrics without seeing anyone
   else's.

   The instrument handles are the atomics themselves: after the one
   mutex-protected get-or-create per (name, labels), recording is a
   plain [Atomic] operation (or a {!Hist} observation) — lock-free and
   domain-safe.  Hot paths should resolve the handle once and hold it.

   Label sets are small association lists, normalized (key-sorted) at
   registration so label order never splits a series.  Cardinality
   discipline is the caller's job: labels must come from small closed
   sets (tenant, phase, kernel, stage, path) — never per-session or
   per-query ids, which would grow the registry without bound. *)

type labels = (string * string) list

type value =
  | Count of int
  | Value of float
  | Dist of Hist.summary

type row = { name : string; labels : labels; value : value }

type instrument =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of Hist.t

type t = {
  mu : Mutex.t;
  tbl : (string * labels, instrument) Hashtbl.t;
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

(* Key-sorted so {a=1,b=2} and {b=2,a=1} are the same series.  Duplicate
   keys are a caller bug; one representative survives. *)
let norm labels =
  match labels with
  | [] | [ _ ] -> labels
  | _ -> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

(* [name{k=v,...}], for error messages *)
let full_name name labels =
  match norm labels with
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let find_or_add t name labels mk =
  let labels = norm labels in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.tbl (name, labels) with
      | Some i -> i
      | None ->
          let i = mk () in
          Hashtbl.add t.tbl (name, labels) i;
          i)

let kind_error name labels want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is not a %s" (full_name name labels) want)

let counter t ?(labels = []) name =
  match find_or_add t name labels (fun () -> Counter (Atomic.make 0)) with
  | Counter a -> a
  | _ -> kind_error name labels "counter"

let gauge t ?(labels = []) name =
  match find_or_add t name labels (fun () -> Gauge (Atomic.make 0.0)) with
  | Gauge a -> a
  | _ -> kind_error name labels "gauge"

let histogram t ?(labels = []) name =
  match
    find_or_add t name labels (fun () ->
        Histogram (Hist.make ()))
  with
  | Histogram h -> h
  | _ -> kind_error name labels "histogram"

let bump t ?labels ?(by = 1) name =
  ignore (Atomic.fetch_and_add (counter t ?labels name) by)

let set t ?labels name v = Atomic.set (gauge t ?labels name) v

let observe t ?labels name v = Hist.observe (histogram t ?labels name) v

let get t ?(labels = []) name =
  let labels = norm labels in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.tbl (name, labels) with
      | Some (Counter a) -> Atomic.get a
      | _ -> 0)

(* --- snapshots --------------------------------------------------------- *)

let compare_row a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot t : row list =
  let entries =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun k i acc -> (k, i) :: acc) t.tbl [])
  in
  entries
  |> List.map (fun ((name, labels), i) ->
         let value =
           match i with
           | Counter a -> Count (Atomic.get a)
           | Gauge a -> Value (Atomic.get a)
           | Histogram h -> Dist (Hist.summarize h)
         in
         { name; labels; value })
  |> List.sort compare_row

(* --- exposition -------------------------------------------------------- *)

(* Prometheus-style metric names: [a-zA-Z0-9_:] only. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" (prom_name k) v)
             labels)
      ^ "}"

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Prometheus-style text exposition.  Counters and gauges are one sample
   each; histograms are exposed summary-style: quantile samples plus
   [_count] and [_sum]. *)
let to_prom (rows : row list) =
  let buf = Buffer.create 1024 in
  let sample name labels v =
    Buffer.add_string buf (prom_name name);
    Buffer.add_string buf (prom_labels labels);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (prom_float v);
    Buffer.add_char buf '\n'
  in
  let typed = Hashtbl.create 16 in
  let declare name ty =
    if not (Hashtbl.mem typed (name, ty)) then begin
      Hashtbl.add typed (name, ty) ();
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" (prom_name name) ty)
    end
  in
  List.iter
    (fun r ->
      match r.value with
      | Count c ->
          declare r.name "counter";
          sample r.name r.labels (float_of_int c)
      | Value v ->
          declare r.name "gauge";
          sample r.name r.labels v
      | Dist s ->
          declare r.name "summary";
          sample r.name (r.labels @ [ ("quantile", "0.5") ]) s.Hist.p50;
          sample r.name (r.labels @ [ ("quantile", "0.9") ]) s.Hist.p90;
          sample (r.name ^ "_count") r.labels (float_of_int s.Hist.count);
          sample (r.name ^ "_sum") r.labels s.Hist.sum)
    rows;
  Buffer.contents buf

let json_of_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json (rows : row list) : Json.t =
  Json.Arr
    (List.map
       (fun r ->
         let base =
           [ ("name", Json.Str r.name); ("labels", json_of_labels r.labels) ]
         in
         let rest =
           match r.value with
           | Count c ->
               [
                 ("kind", Json.Str "counter");
                 ("value", Json.Num (float_of_int c));
               ]
           | Value v -> [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ]
           | Dist s ->
               [
                 ("kind", Json.Str "histogram");
                 ("count", Json.Num (float_of_int s.Hist.count));
                 ("sum", Json.Num s.Hist.sum);
                 ("p50", Json.Num s.Hist.p50);
                 ("p90", Json.Num s.Hist.p90);
                 ("min", Json.Num s.Hist.min);
                 ("max", Json.Num s.Hist.max);
                 ( "buckets",
                   Json.Arr
                     (List.map
                        (fun (ub, c) ->
                          Json.Arr [ Json.Num ub; Json.Num (float_of_int c) ])
                        s.Hist.buckets) );
               ]
         in
         Json.Obj (base @ rest))
       rows)
