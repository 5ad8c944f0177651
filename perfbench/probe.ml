(* Host-speed probe server, a process of its own.

   The benchmark starts it once and asks it for a probe between measured
   items: each byte read on standard input runs the probe kernel once and
   writes its time in seconds as one line on standard output; the server
   exits at end of input.  It links nothing from the library and keeps
   its own small heap, so a probe's time depends on the host's speed and
   not on the benchmark's heap, GC state or runtime settings.

   The kernel is CPU- and cache-bound, as the workloads are: hashing and
   sorting freshly allocated boxed data.  It chases no pointers through
   memory: on the tuning host a kernel that spent about half its time on
   a pointer chase over an 8 MB array read only 1.6 times slower when
   the workloads ran 2.2-2.5 times slower. *)

let probe () =
  let t0 = Unix.gettimeofday () in
  for round = 1 to 4 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 8_000 do
      Hashtbl.replace h
        (string_of_int ((i + round) * 7919 mod 100_003))
        [ float_of_int i ]
    done;
    let l =
      List.sort compare
        (List.init 8_000 (fun i -> ((i + round) * 7919) mod 100_003))
    in
    ignore (Sys.opaque_identity (h, l))
  done;
  Unix.gettimeofday () -. t0

let () =
  try
    while true do
      ignore (input_char stdin);
      Printf.printf "%.17g\n%!" (probe ())
    done
  with End_of_file -> ()
