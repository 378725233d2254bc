(* Multiprogramming the reconfigurable lattice as a closed batch on one
   tenant of the service: every job is on the tenant's submission ring at
   time zero and the dispatch policy alone decides the order. A closed
   batch has no later arrivals for [Grouped] to starve, so its aging
   escape is set out of reach. *)

module Simtime = Rvi_sim.Simtime
module Jobs = Rvi_harness.Jobs

type job = { kind : Jobs.app_kind; seed : int; bytes : int }

type result = { outcome : Service.outcome; verified : bool }

let mixed_batch ~seed ~jobs_per_app =
  List.concat
    (List.init jobs_per_app (fun i ->
         [
           { kind = Jobs.Adpcm; seed = seed + (3 * i); bytes = 4 * 1024 };
           { kind = Jobs.Idea; seed = seed + (3 * i) + 1; bytes = 4 * 1024 };
           { kind = Jobs.Fir; seed = seed + (3 * i) + 2; bytes = 8 * 1024 };
         ]))

let run cfg policy jobs =
  let n = List.length jobs in
  let tenant =
    Tenant.create ~id:0 ~weight:1 ~sq_capacity:(max 1 n) ~cq_capacity:(max 1 n)
  in
  List.iteri
    (fun rid (j : job) ->
      ignore
        (Tenant.submit tenant
           {
             Tenant.rid;
             tenant = 0;
             kind = j.kind;
             seed = j.seed;
             bytes = j.bytes;
             submitted_at = Simtime.zero;
           }))
    jobs;
  let params =
    { (Service.default_params policy) with Service.sp_aging = Simtime.of_ps max_int }
  in
  let svc = Service.create cfg params ~tenants:[| tenant |] in
  let outcome = Service.run svc Service.null_feed ~expect:n in
  {
    outcome;
    verified =
      tenant.Tenant.completed = n
      && tenant.Tenant.degraded = 0
      && tenant.Tenant.recovered = 0;
  }

let experiment ?(jobs_per_app = 4) ppf (cfg : Rvi_harness.Config.t) =
  let jobs = mixed_batch ~seed:cfg.Rvi_harness.Config.seed ~jobs_per_app in
  let results =
    List.map
      (fun p -> (Sched_policy.name p, run cfg p jobs))
      [ Sched_policy.Fcfs; Sched_policy.Grouped ]
  in
  Format.fprintf ppf
    "@.== Extension: multiprogramming the lattice (%d mixed jobs under \
     FPGA_LOAD's exclusive lock) ==@."
    (List.length jobs);
  Format.fprintf ppf "%-10s %10s %12s %14s %10s@." "dispatch" "makespan"
    "reconfigs" "config time" "verified";
  List.iter
    (fun (name, r) ->
      let o = r.outcome in
      Format.fprintf ppf "%-10s %8.2fms %12d %12.2fms %10b@." name
        (Simtime.to_ms o.Service.o_makespan)
        o.Service.o_reconfigurations
        (Simtime.to_ms o.Service.o_configuration_time)
        r.verified)
    results;
  Format.fprintf ppf
    "(grouping jobs by bit-stream amortises the lattice's reconfiguration \
     cost — the scheduling concern of the related work the paper cites)@.";
  results
