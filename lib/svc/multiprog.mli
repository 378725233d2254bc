(** Multiprogramming the reconfigurable lattice.

    [FPGA_LOAD] "ensures the exclusive use of the resource" (§3.1), which
    makes the lattice a scheduled resource as soon as several applications
    want coprocessors — the concern of the related work the paper cites
    (Walder & Platzner; Dales). A batch of jobs from different
    applications, each needing its own bit-stream, runs as a closed load
    on one tenant of the {!Service}, under [Fcfs] or [Grouped].

    Because the Excalibur reconfigures in tens of milliseconds, the
    policy matters: first-come-first-served over an interleaved arrival
    order thrashes the configuration port, while batching jobs by
    bit-stream amortises it. *)

type job = { kind : Rvi_harness.Jobs.app_kind; seed : int; bytes : int }

type result = {
  outcome : Service.outcome;
  verified : bool;  (** every job completed and verified on first execution *)
}

val mixed_batch : seed:int -> jobs_per_app:int -> job list
(** The standard workload: interleaved adpcm (4 KB), IDEA (4 KB) and FIR
    (8 KB) jobs. *)

val run : Rvi_harness.Config.t -> Sched_policy.t -> job list -> result
(** Submits the whole batch at time zero to one tenant and runs the
    service until it drains. [Grouped] runs without its aging escape. *)

val experiment :
  ?jobs_per_app:int ->
  Format.formatter ->
  Rvi_harness.Config.t ->
  (string * result) list
(** The lattice-scheduling table: the {!mixed_batch} (default 4 jobs per
    application) under [Fcfs] and [Grouped], with makespan,
    reconfigurations, configuration time and verification. *)
