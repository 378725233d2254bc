(* multiprogramming: several applications sharing one lattice.

   FPGA_LOAD "ensures the exclusive use of the resource" (§3.1), so when
   an audio decoder, a cipher and a filter all want their coprocessor, the
   dispatcher decides who holds the lattice when — and reconfiguration is
   tens of milliseconds on the Excalibur, far more than most jobs. This
   program submits the same mixed batch to the coprocessor service under
   its first-come-first-served policy and under the one that batches jobs
   by bit-stream, then shows a blocked FPGA_LOAD from a second process.

   Run with:  dune exec examples/multiprogramming.exe *)

module Multiprog = Rvi_svc.Multiprog

let () =
  let cfg = Rvi_harness.Config.default () in
  let jobs = Multiprog.mixed_batch ~seed:7 ~jobs_per_app:5 in
  Printf.printf "batch: %d jobs (adpcm 4KB / idea 4KB / fir 8KB interleaved)\n\n"
    (List.length jobs);
  Printf.printf "%-10s %12s %10s %14s %9s\n" "dispatch" "makespan" "reconfigs"
    "config time" "verified";
  let results =
    List.map
      (fun p -> (p, Multiprog.run cfg p jobs))
      [ Rvi_svc.Sched_policy.Fcfs; Rvi_svc.Sched_policy.Grouped ]
  in
  let makespan_ms (r : Multiprog.result) =
    Rvi_sim.Simtime.to_ms r.Multiprog.outcome.Rvi_svc.Service.o_makespan
  in
  List.iter
    (fun (p, (r : Multiprog.result)) ->
      let o = r.Multiprog.outcome in
      Printf.printf "%-10s %10.2fms %10d %12.2fms %9b\n"
        (Rvi_svc.Sched_policy.name p)
        (makespan_ms r) o.Rvi_svc.Service.o_reconfigurations
        (Rvi_sim.Simtime.to_ms o.Rvi_svc.Service.o_configuration_time)
        r.Multiprog.verified)
    results;
  (match results with
  | [ (_, fcfs); (_, grouped) ] ->
    Printf.printf
      "\nbatching by bit-stream made the batch %.1fx faster (reconfiguration \
       thrash removed)\n"
      (makespan_ms fcfs /. makespan_ms grouped)
  | _ -> ());
  (* The lock itself, seen from a second process. *)
  let pld = Rvi_fpga.Pld.create Rvi_fpga.Device.epxa1 in
  (match Rvi_fpga.Pld.configure pld ~pid:1 Rvi_harness.Calibration.adpcm_bitstream with
  | Ok () -> ()
  | Error _ -> assert false);
  (match Rvi_fpga.Pld.configure pld ~pid:2 Rvi_harness.Calibration.idea_bitstream with
  | Error e ->
    Printf.printf "\nprocess 2's FPGA_LOAD while process 1 holds the lattice: %s\n"
      (Rvi_fpga.Pld.error_to_string e)
  | Ok () -> print_endline "lock failed to hold!");
  List.iter
    (fun (_, (r : Multiprog.result)) -> if not r.Multiprog.verified then exit 1)
    results
