(* Host speed probe. On a shared machine the host's speed changes for
   seconds at a time: on a shared 2-core x86-64 VM the same 50-run
   campaign unit took 0.42 s of CPU time in one stretch and 0.58 s in
   the next. A fixed loop of the benchmark's own, run between units,
   measures how fast the host is at that moment, and each unit's host
   time is rescaled to a reference host on which one probe takes
   [reference_s] of CPU time. The probe runs no simulator code, so a
   change to the simulator moves the units and never the probe. *)

let reference_s = 0.04

(* The slow stretches hit allocation and writes, not arithmetic or
   reads: on the VM above, a pure arithmetic loop and a random walk over
   16 MB kept their speed within 7% while a simulator unit slowed by a
   quarter to a third. So the probe
   mixes a 512 KB working set walked in a pseudo-random order, updates
   to a hash table, and a stream of short-lived lists through the minor
   heap. The working set and the table are made once; every list dies
   young, so the probe does next to no major-heap work and its time does
   not depend on how much the simulator keeps live. *)
let ring = Array.init 65536 (fun i -> ((i * 40503) + 12345) land 65535)
let table = Hashtbl.create 4096

let () =
  for i = 0 to 4095 do
    Hashtbl.replace table (i * 7919) i
  done

let sink = ref 0

let work ~rounds =
  let acc = ref 0 and j = ref 0 in
  for round = 1 to rounds do
    for _ = 1 to 16384 do
      j := ring.(!j lxor (round land 1));
      acc := !acc + !j
    done;
    for i = 0 to 1023 do
      let k = ((i + round) land 4095) * 7919 in
      Hashtbl.replace table k (Hashtbl.find table k + 1)
    done;
    for _ = 1 to 4 do
      let l = List.init 512 (fun i -> (i, round)) in
      acc := !acc + List.fold_left (fun a (x, y) -> a + (x lxor y)) 0 (List.rev l)
    done
  done;
  sink := !acc

let rounds = 150

(* CPU seconds one probe takes now. *)
let probe () =
  let t0 = Sys.time () in
  work ~rounds;
  Sys.time () -. t0
