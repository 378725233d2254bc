(* The three benchmark workloads, driven only through the library's
   public entry points: [Faults.run_one] for the campaign and
   [Loadgen]/[Service] for the two service workloads. Every workload
   runs serially.

   A run is a fixed, seed-determined cycle of units; every simulated
   metric, counter and digest comes from that first cycle, so they
   repeat exactly for one commit and seed. Units then repeat from the
   start of the cycle until [--seconds] of measuring have passed; each
   repeat must reproduce its first result. Every unit gives one
   host-throughput sample, and set-up is timed next to the units. *)

module Simtime = Rvi_sim.Simtime
module Prng = Rvi_sim.Prng
module Engine = Rvi_sim.Engine
module Stats = Rvi_sim.Stats
module Kernel = Rvi_os.Kernel
module Accounting = Rvi_os.Accounting
module Imu = Rvi_core.Imu
module Tlb = Rvi_core.Tlb
module Walker = Rvi_core.Walker
module Vim = Rvi_core.Vim
module Translation_mode = Rvi_core.Translation_mode
module Config = Rvi_harness.Config
module Faults = Rvi_harness.Faults
module Platform = Rvi_harness.Platform
module Runner = Rvi_harness.Runner
module Jobs = Rvi_harness.Jobs
module Service = Rvi_svc.Service
module Loadgen = Rvi_svc.Loadgen
module Tenant = Rvi_svc.Tenant
module Sched_policy = Rvi_svc.Sched_policy
module Slo = Rvi_svc.Slo

(* Host time is the process's CPU time: the benchmark is serial, so on
   an idle host this is its wall time, and on a busy one it leaves out
   the time other processes held the CPU. The run's length is wall
   time. *)
let now = Sys.time
let wall = Unix.gettimeofday

(* {1 Results} *)

type sample = {
  ops : int;
  host_s : float;
  setup : float option;  (** a set-up timed alongside this unit *)
}

type layer_value = Value of float | Unobservable

type result = {
  setup_s : float list;  (** reference-host seconds *)
  samples : sample list;  (** untraced units; host time in reference-host seconds *)
  overhead_pct : float option;  (** traced run only *)
  peak_heap_mb : float;
  probes : float list;  (** host seconds of each speed probe *)
  attempted : int;
  failed : int;
  lat_ms : float array;
      (** sorted simulated time of every op of the reference set: a
          campaign run's execution time, a request's latency *)
  sim_ops_per_s : float option;
      (** [None] where a metric does not apply to the workload *)
  limit_ms : float option;  (** the latency limit, where there is one *)
  slo_met_pct : float option;
  max_rate_hz : float option;
  jain : float option;
  digest : string;
  layers : (string * layer_value) list;  (** traced run only *)
  details : string list;  (** traced run only: layer numbers not in [layers] *)
  spans : Spans.t option;
  notes : string list;
  errors : string list;  (** failed output checks *)
}

(* Per-layer counters summed over the reference cycle. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let addi t k v = add t k (float_of_int v)
end

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Where a traced unit records: spans around each call into a layer,
   layer counters read after it, and the host time of each op. *)
type tracer = { spans : Spans.t; acc : Acc.t; mutable op_ms : float list }

let new_tracer () = { spans = Spans.create (); acc = Acc.create (); op_ms = [] }

type measured = {
  m_samples : sample list;
  m_setups : float list;
  m_overhead_pct : float option;
  m_peak_heap_mb : float;
  m_probes : float list;  (** host seconds of each speed probe, in order *)
}

(* Runs [n_units] units of the reference cycle in order, then repeats
   the first [sampled] of them from the start until [seconds] have passed
   since the first. Only those [sampled] units give host samples, so the
   samples do not depend on how many units the reference cycle ran.

   Host speed on a shared machine drifts over seconds, so set-up is
   timed throughout the run, next to the units, rather than once up
   front, and a speed probe ([Hostspeed]) runs before the first unit and
   after every unit. A unit's host time, and that of the set-up timed
   with it, is rescaled by the mean of the two probes around it to
   seconds of the reference host. A full major collection ends every
   unit and is timed as part of it: each unit pays for collecting the
   garbage it made, and the next set-up and unit start from a clean
   heap, so no GC debt lands at random in a set-up or a probe. The peak
   heap is read when the last sampled unit of the reference cycle ends:
   a fixed amount of work, however many repeats fit into the run. Units
   reporting no ops were skipped and are not samples.

   With [main] (the traced run) the reference cycle records into [main];
   every repeat then runs its unit twice, once recording into a throwaway
   tracer and once not recording, the order swapping from one pair to
   the next, at least four pairs. The tracing overhead compares the two
   runs of each unit, so both sides did the same work. *)
let measure ?sampled ?(probe = Hostspeed.probe) ~seconds ~main ~n_units run_unit =
  let sampled = Option.value ~default:n_units sampled in
  let traced = main <> None in
  let samples = ref [] and pairs = ref [] and setups = ref [] and probes = ref [] in
  let probe () =
    let p = probe () in
    probes := p :: !probes;
    p
  in
  Gc.full_major ();
  let last_probe = ref (probe ()) in
  let run ~reference ~tr index =
    let s = run_unit ~reference ~tr index in
    if s.ops = 0 then s
    else begin
      let t = now () in
      Gc.full_major ();
      let host_s = s.host_s +. (now () -. t) in
      let p = probe () in
      let scale = Hostspeed.reference_s /. ((!last_probe +. p) /. 2.0) in
      last_probe := p;
      let setup = Option.map (fun x -> x *. scale) s.setup in
      Option.iter (fun x -> setups := x :: !setups) setup;
      { s with host_s = host_s *. scale; setup }
    end
  in
  let t0 = wall () in
  let heap_words = ref 0 in
  for index = 0 to n_units - 1 do
    let s = run ~reference:true ~tr:main index in
    if s.ops > 0 && index < sampled && not traced then samples := s :: !samples;
    if index = sampled - 1 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let i = ref 0 in
  while wall () -. t0 < seconds || (traced && List.length !pairs < 4) do
    let index = !i mod sampled in
    (if not traced then begin
       let s = run ~reference:false ~tr:None index in
       if s.ops > 0 then samples := s :: !samples
     end
     else
       (* Within a cycle of even length, also swap from one cycle to
          the next, so every unit leads on both sides. *)
       let traced_first = (!i + if sampled mod 2 = 0 then !i / sampled else 0) mod 2 = 0 in
       let a = run ~reference:false ~tr:(if traced_first then Some (new_tracer ()) else None) index in
       if a.ops > 0 then begin
         let b =
           run ~reference:false ~tr:(if traced_first then None else Some (new_tracer ())) index
         in
         let on, off = if traced_first then (a, b) else (b, a) in
         samples := off :: !samples;
         pairs := (on, off) :: !pairs
       end);
    incr i
  done;
  let host l = List.fold_left (fun a s -> a +. s.host_s) 0.0 l in
  {
    m_samples = List.rev !samples;
    m_setups = List.rev !setups;
    m_overhead_pct =
      (if traced then
         Some
           (100.0
           *. ((host (List.map fst !pairs) /. host (List.map snd !pairs)) -. 1.0))
       else None);
    m_peak_heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.0;
    m_probes = List.rev !probes;
  }

(* {1 Layer counters read from public accessors} *)

let sim_ms t = Simtime.to_ms t

let add_accounting acc kernel =
  let a = Kernel.accounting kernel in
  List.iter
    (fun (cat, key) -> Acc.add acc key (sim_ms (Accounting.get a cat)))
    [
      (Accounting.Hw, "os.sim_hw_ms");
      (Accounting.Sw_dp, "os.sim_sw_dp_ms");
      (Accounting.Sw_imu, "os.sim_sw_imu_ms");
      (Accounting.Sw_os, "os.sim_sw_os_ms");
    ];
  Acc.addi acc "os.interrupts" (Stats.get (Kernel.stats kernel) "interrupts")

let add_vim acc vim =
  let s = Vim.stats vim in
  List.iter
    (fun (name, key) -> Acc.addi acc key (Stats.get s name))
    [
      ("faults", "vim.faults");
      ("evictions", "vim.evictions");
      ("writebacks", "vim.writebacks");
      ("premapped", "vim.premapped");
      ("copies_recovered", "vim.recoveries");
      ("lost_irq_recovered", "vim.recoveries");
    ]

let add_platform acc (p : Platform.t) =
  Acc.addi acc "sim.events" (Engine.events_processed p.Platform.engine);
  let imu = p.Platform.imu in
  let is = Imu.stats imu in
  Acc.addi acc "imu.accesses" (Stats.get is "accesses");
  Acc.addi acc "imu.stall_cycles" (Stats.get is "stall_cycles");
  let ts = Tlb.stats (Imu.tlb imu) in
  Acc.addi acc "tlb.hits" (Stats.get ts "hits");
  Acc.addi acc "tlb.misses" (Stats.get ts "misses");
  (match Imu.l2 imu with
  | Some l2 ->
    let s = Tlb.stats l2 in
    Acc.addi acc "l2.hits" (Stats.get s "hits");
    Acc.addi acc "l2.misses" (Stats.get s "misses")
  | None -> ());
  (match Imu.walker imu with
  | Some w ->
    let s = Walker.stats w in
    Acc.addi acc "walker.walks" (Stats.get s "walks");
    Acc.addi acc "walker.walk_faults" (Stats.get s "walk_faults")
  | None -> ());
  add_vim acc p.Platform.vim;
  add_accounting acc p.Platform.kernel

(* The per-op view every workload shares. [host_s] is the host time the
   ops took. [observable_imu] is false on the service workloads:
   [Service] does not expose its stations' IMUs, so the IMU, TLB, L2
   and walker counters cannot be read there. *)
let common_layers t ~ops ~host_s ~observable_imu =
  let acc = t.acc in
  let per k = Value (Metrics.per_op (Acc.get acc k) ~ops) in
  let hit_pct h m =
    let hits = Acc.get acc h and misses = Acc.get acc m in
    Value (Metrics.share_pct hits ~whole:(hits +. misses))
  in
  let imu v = if observable_imu then v else Unobservable in
  let op_ms = Metrics.sorted_of_list t.op_ms in
  [
    ("op_host_ms.p50", Value (Metrics.percentile op_ms 5000).Metrics.value);
    ("op_host_ms.p95", Value (Metrics.percentile op_ms 9500).Metrics.value);
    ("alloc_words_per_op", per "alloc_words");
    ("sim.events_per_op", per "sim.events");
    ("sim.host_ns_per_event", Value (1e9 *. host_s /. Acc.get acc "sim.events"));
    ("imu.accesses_per_op", imu (per "imu.accesses"));
    ("imu.stall_cycles_per_op", imu (per "imu.stall_cycles"));
    ("tlb.hit_pct", imu (hit_pct "tlb.hits" "tlb.misses"));
    ("tlb.misses_per_op", imu (per "tlb.misses"));
    ("walker.walks_per_op", imu (per "walker.walks"));
    ("walker.walk_faults_per_op", imu (per "walker.walk_faults"));
    ("l2.hit_pct", imu (hit_pct "l2.hits" "l2.misses"));
    ("vim.faults_per_op", per "vim.faults");
    ("vim.evictions_per_op", per "vim.evictions");
    ("vim.writebacks_per_op", per "vim.writebacks");
    ("vim.premapped_per_op", per "vim.premapped");
    ("vim.recoveries_per_op", per "vim.recoveries");
    ("os.sim_hw_ms_per_op", per "os.sim_hw_ms");
    ("os.sim_sw_dp_ms_per_op", per "os.sim_sw_dp_ms");
    ("os.sim_sw_imu_ms_per_op", per "os.sim_sw_imu_ms");
    ("os.sim_sw_os_ms_per_op", per "os.sim_sw_os_ms");
    ("os.interrupts_per_op", per "os.interrupts");
  ]

let self_time t name =
  Option.value ~default:0.0 (List.assoc_opt name (Metrics.self_times (Spans.spans t)))

(* {1 campaign} *)

(* 2000 runs put 20 samples beyond the p99, which keeps the p99 from
   swinging with the few slowest recoveries of one seed. *)
let campaign_runs = 2000
let campaign_unit = 50

(* [Faults.campaign]'s serial schedule: one master stream per campaign
   seed, one injector seed per run index, applications in rotation. The
   fingerprint check pins this against [Faults.campaign] itself. *)
let campaign_seeds ~seed ~runs =
  let master = Prng.create ~seed in
  Array.init runs (fun _ -> Prng.next master land 0x3FFF_FFFF)

let campaign_spec = Rvi_inject.Spec.all ()

let campaign_run ?inspect ~pool ~seeds i workload =
  let r =
    Faults.run_one ~pool ?inspect ~spec:campaign_spec
      ~recovery:Vim.default_recovery ~watchdog:Faults.default_watchdog
      ~exec_retries:2 ~seed:seeds.(i) workload
  in
  { r with Faults.index = i }

let run_failed (r : Faults.run_result) ~inconsistent =
  inconsistent
  ||
  match r.Faults.outcome with
  | Faults.Clean | Faults.Recovered _ -> false
  | Faults.Degraded { verified; _ } -> not verified
  | Faults.Failed _ | Faults.Crashed _ -> true

(* Set-up as a campaign user pays it: generate the default inputs
   ([Faults.workloads]) and fill a fresh platform pool with one run per
   application. *)
let campaign_setup ~spans ~seed ~seeds =
  let t0 = now () in
  let apps = Spans.wrap spans "inputs" ~op:(-1) (fun () -> Faults.workloads ~seed) in
  let pool = Platform.Pool.create () in
  Array.iteri
    (fun i w ->
      Spans.wrap spans "warmup.run_one" ~op:i (fun () ->
          ignore (campaign_run ~pool ~seeds i w)))
    apps;
  (apps, pool, now () -. t0)

(* One more set-up is timed before every [campaign_setup_every]-th
   unit; its inputs and pool are thrown away. *)
let campaign_setup_every = 4

let campaign ~seed ~seconds ~traced =
  let main = if traced then Some (new_tracer ()) else None in
  let spans = Option.map (fun t -> t.spans) main in
  let seeds = campaign_seeds ~seed ~runs:campaign_runs in
  let apps, pool, first_setup = campaign_setup ~spans ~seed ~seeds in
  let results = Array.make campaign_runs None and errors = ref [] in
  let units_run = ref 0 in
  let n_units = campaign_runs / campaign_unit in
  let phases = ref (0.0, 0.0, 0.0) in
  Runner.Phases.reset ();
  let run_unit ~reference ~tr u =
    let sp = Option.map (fun t -> t.spans) tr in
    let setup =
      if !units_run = 0 then Some first_setup
      else if !units_run mod campaign_setup_every = 0 then
        let _, _, dt = campaign_setup ~spans:None ~seed ~seeds in
        Some dt
      else None
    in
    incr units_run;
    let host_s = ref 0.0 in
    for i = u * campaign_unit to ((u + 1) * campaign_unit) - 1 do
      let inconsistent = ref false in
      let inspect (p : Platform.t) =
        Spans.wrap sp "inspect" ~op:i (fun () ->
            (match Vim.consistency p.Platform.vim with
            | Ok () -> ()
            | Error _ -> inconsistent := true);
            Option.iter (fun t -> add_platform t.acc p) tr)
      in
      let a0 = alloc_words () in
      let t0 = now () in
      let r =
        Spans.wrap sp "faults.run_one" ~op:i (fun () ->
            campaign_run ~inspect ~pool ~seeds i apps.(i mod Array.length apps))
      in
      let dt = now () -. t0 in
      host_s := !host_s +. dt;
      Option.iter
        (fun t ->
          t.op_ms <- (1e3 *. dt) :: t.op_ms;
          Acc.add t.acc "alloc_words" (alloc_words () -. a0))
        tr;
      if reference then results.(i) <- Some (r, !inconsistent)
      else if results.(i) <> Some (r, !inconsistent) then
        errors := Printf.sprintf "campaign run %d differs on repeat" i :: !errors
    done;
    if reference && u = n_units - 1 then phases := Runner.Phases.totals ();
    { ops = campaign_unit; host_s = !host_s; setup }
  in
  let m = measure ~seconds ~main ~n_units run_unit in
  let runs = Array.to_list (Array.map Option.get results) in
  let csv, summary =
    Spans.wrap spans "report" ~op:(-1) (fun () ->
        let rs = List.map fst runs in
        (Faults.csv rs, Faults.summarize rs))
  in
  let ok (r, inconsistent) = not (run_failed r ~inconsistent) in
  let lat = List.map (fun ((r : Faults.run_result), _) -> r.Faults.total_ms) runs in
  let ops = campaign_runs in
  let layers, details =
    match main with
    | None -> ([], [])
    | Some t ->
      let setup_p, exec_p, report_p = !phases in
      ( common_layers t ~ops ~host_s:(self_time t.spans "faults.run_one")
          ~observable_imu:true
        @ [
            ( "inject.injected_per_run",
              Value (Metrics.per_op (float_of_int summary.Faults.injected) ~ops) );
            ("inject.recovered_pct", Value (Metrics.pct_of summary.Faults.recovered ~whole:ops));
            ("inject.degraded_pct", Value (Metrics.pct_of summary.Faults.degraded ~whole:ops));
          ],
        [
          Printf.sprintf
            "Runner.Phases over the reference cycle: setup %.3f s, execute %.3f s, \
             report %.3f s"
            setup_p exec_p report_p;
        ] )
  in
  (* A serial campaign has no latency limit, no offered rate and one
     client: its simulated throughput is the inverse of [sim_ms_per_op],
     and the SLO, rate and fairness metrics do not apply. *)
  {
    setup_s = m.m_setups;
    samples = m.m_samples;
    overhead_pct = m.m_overhead_pct;
    peak_heap_mb = m.m_peak_heap_mb;
    probes = m.m_probes;
    attempted = ops;
    failed = List.length (List.filter (fun x -> not (ok x)) runs);
    lat_ms = Metrics.sorted_of_list lat;
    sim_ops_per_s = None;
    limit_ms = None;
    slo_met_pct = None;
    max_rate_hz = None;
    jain = None;
    digest = Digest.to_hex (Digest.string csv);
    layers;
    details;
    spans;
    notes = [ String.trim (Format.asprintf "%a" Faults.print_summary summary) ];
    errors = List.rev !errors;
  }

(* {1 Service workloads} *)

type serve_shape = {
  policy : Sched_policy.t;
  translation : Translation_mode.t;
  tenants : int;
  requests : int;  (** per service instance *)
  bytes : int;
}

type instance = {
  completions : Tenant.completion array;  (** completion order *)
  sent : int;
  refused : int;
  outcome : Service.outcome;
  build_s : float;  (** host time of [Loadgen.create] and [Service.create] *)
  run_s : float;  (** host time of [Service.run] *)
}

let config shape ~seed =
  { (Config.default ()) with Config.translation = shape.translation; seed }

let build shape ~seed ~rate ~spans =
  let lg =
    Spans.wrap spans "loadgen.create" ~op:(-1) (fun () ->
        Loadgen.create ~seed ~tenants:shape.tenants ~requests:shape.requests
          ~rate_hz:rate ~bytes:shape.bytes ())
  in
  let svc =
    Spans.wrap spans "service.create" ~op:(-1) (fun () ->
        Service.create (config shape ~seed)
          (Service.default_params shape.policy)
          ~tenants:(Loadgen.tenants lg))
  in
  (lg, svc)

(* One service instance: build, run to completion, capture every
   completion through a wrapped [f_notify]. With a tracer, also record
   spans, the host time between completions and the layer counters. *)
let run_instance shape ~seed ~rate ~tr ~op =
  let spans = Option.map (fun t -> t.spans) tr in
  let b0 = now () in
  let lg, svc = build shape ~seed ~rate ~spans in
  let build_s = now () -. b0 in
  let captured = ref [] in
  let base = Loadgen.feed lg in
  let last = ref 0.0 in
  let notify (c : Tenant.completion) ~now:at =
    captured := c :: !captured;
    Option.iter
      (fun t ->
        let h = now () in
        t.op_ms <- (1e3 *. (h -. !last)) :: t.op_ms;
        last := h)
      tr;
    base.Service.f_notify c ~now:at
  in
  let feed =
    match spans with
    | None -> { base with Service.f_notify = notify }
    | Some _ ->
      {
        Service.f_next_arrival =
          (fun () ->
            Spans.wrap spans "feed.next_arrival" ~op:(-1) base.Service.f_next_arrival);
        f_deliver =
          (fun ~now ->
            Spans.wrap spans "feed.deliver" ~op:(-1) (fun () ->
                base.Service.f_deliver ~now));
        f_notify =
          (fun c ~now ->
            Spans.wrap spans "feed.notify" ~op:c.Tenant.c_rid (fun () ->
                notify c ~now));
      }
  in
  let a0 = alloc_words () in
  let t0 = now () in
  last := t0;
  let outcome =
    Spans.wrap spans "service.run" ~op (fun () ->
        Service.run svc feed ~expect:shape.requests)
  in
  let run_s = now () -. t0 in
  Option.iter
    (fun t ->
      let acc = t.acc in
      Acc.add acc "alloc_words" (alloc_words () -. a0);
      Acc.add acc "svc.run_host_s" run_s;
      let kernel = Service.kernel svc in
      Acc.addi acc "sim.events" (Engine.events_processed (Kernel.engine kernel));
      List.iter
        (fun k -> add_vim acc (Service.vim_of_kind svc k))
        [ Jobs.Adpcm; Jobs.Idea; Jobs.Fir ];
      add_accounting acc kernel;
      Acc.addi acc "svc.reconfigurations" outcome.Service.o_reconfigurations;
      Acc.add acc "svc.config_ms" (sim_ms outcome.Service.o_configuration_time);
      Acc.add acc "svc.makespan_ms" (sim_ms outcome.Service.o_makespan))
    tr;
  {
    completions = Array.of_list (List.rev !captured);
    sent = Loadgen.issued lg;
    refused =
      Array.fold_left (fun a (t : Tenant.t) -> a + t.Tenant.dropped) 0 (Loadgen.tenants lg);
    outcome;
    build_s;
    run_s;
  }

let completion_row (c : Tenant.completion) =
  Printf.sprintf "%d,%d,%s,%s,%d,%d,%d,%d,%d\n" c.Tenant.c_rid c.Tenant.c_tenant
    (Jobs.app_name c.Tenant.c_kind)
    (Tenant.status_name c.Tenant.c_status)
    c.Tenant.c_preemptions c.Tenant.c_retries
    (Simtime.to_ps c.Tenant.c_submitted_at)
    (Simtime.to_ps c.Tenant.c_started_at)
    (Simtime.to_ps c.Tenant.c_finished_at)

let instance_digest i =
  let b = Buffer.create (64 * Array.length i.completions) in
  Array.iter (fun c -> Buffer.add_string b (completion_row c)) i.completions;
  Digest.to_hex (Digest.string (Buffer.contents b))

let latency_ms (c : Tenant.completion) = sim_ms (Tenant.latency c)

(* Mean simulated latency of each tenant that completed anything, from
   the exact completion times. *)
let tenant_means i =
  let by_tenant = Hashtbl.create 64 in
  Array.iter
    (fun (c : Tenant.completion) ->
      let sum, n =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_tenant c.Tenant.c_tenant)
      in
      Hashtbl.replace by_tenant c.Tenant.c_tenant (sum +. latency_ms c, n + 1))
    i.completions;
  Hashtbl.fold (fun _ (sum, n) acc -> (sum /. float_of_int n) :: acc) by_tenant []
  |> List.sort Float.compare

let queue_ms (c : Tenant.completion) =
  sim_ms (Simtime.sub c.Tenant.c_started_at c.Tenant.c_submitted_at)

let exec_ms (c : Tenant.completion) =
  sim_ms (Simtime.sub c.Tenant.c_finished_at c.Tenant.c_started_at)

(* The service never delivers unverified output (a failed execution
   takes the verified software fallback), so every captured completion
   is verified; refusals, missing completions and interface
   inconsistencies are the failures. *)
let instance_failed i =
  Metrics.failed_ops ~attempted:i.sent ~completed:(Array.length i.completions)
    ~unverified:0
    ~inconsistent:(List.length i.outcome.Service.o_inconsistencies)

let verified i =
  Array.length i.completions
  - min (Array.length i.completions)
      (List.length i.outcome.Service.o_inconsistencies)

let service_layers t ~instances =
  let all = List.concat_map (fun i -> Array.to_list i.completions) instances in
  let ops = List.length all in
  let acc = t.acc in
  let pct f p =
    Value (Metrics.percentile (Metrics.sorted_of_list (List.map f all)) p).Metrics.value
  in
  let sent = List.fold_left (fun a i -> a + i.sent) 0 instances in
  let refused = List.fold_left (fun a i -> a + i.refused) 0 instances in
  let feed_s =
    List.fold_left
      (fun a n -> a +. self_time t.spans n)
      0.0
      [ "feed.next_arrival"; "feed.deliver"; "feed.notify" ]
  in
  ( common_layers t ~ops ~host_s:(Acc.get acc "svc.run_host_s") ~observable_imu:false
    @ [
        ("svc.queue_wait_ms.p50", pct queue_ms 5000);
        ("svc.queue_wait_ms.p99", pct queue_ms 9900);
        ("svc.exec_ms.p50", pct exec_ms 5000);
        ("svc.exec_ms.p99", pct exec_ms 9900);
        ( "svc.reconfig_per_request",
          Value (Metrics.per_op (Acc.get acc "svc.reconfigurations") ~ops) );
        ( "svc.config_time_pct",
          Value
            (Metrics.share_pct (Acc.get acc "svc.config_ms")
               ~whole:(Acc.get acc "svc.makespan_ms")) );
        ("svc.refused_pct", Value (Metrics.pct_of refused ~whole:sent));
      ],
    [
      Printf.sprintf
        "Service.run self time %.3f s, feed callbacks %.3f s, over the reference cycle"
        (self_time t.spans "service.run") feed_s;
    ] )

(* {2 serve-wide} *)

let wide =
  {
    policy = Sched_policy.Fcfs;
    translation = Translation_mode.Paper_objects;
    tenants = 1000;
    requests = 5000;
    bytes = 256;
  }

let serve_wide ~seed ~seconds ~traced =
  let main = if traced then Some (new_tracer ()) else None in
  let spans = Option.map (fun t -> t.spans) main in
  let reference = ref None and errors = ref [] in
  let m =
    measure ~seconds ~main ~n_units:1 (fun ~reference:is_ref ~tr _ ->
        let i = run_instance wide ~seed ~rate:0 ~tr ~op:0 in
        let digest = instance_digest i in
        (if is_ref then reference := Some (i, digest)
         else
           match !reference with
           | Some (_, d) when d <> digest ->
             errors := "serve-wide differs on repeat" :: !errors
           | _ -> ());
        { ops = Array.length i.completions; host_s = i.run_s; setup = Some i.build_s })
  in
  let i, digest = Option.get !reference in
  let lat =
    Spans.wrap spans "report" ~op:(-1) (fun () ->
        Array.to_list (Array.map latency_ms i.completions))
  in
  let ops = Array.length i.completions in
  let layers, details =
    match main with Some t -> service_layers t ~instances:[ i ] | None -> ([], [])
  in
  {
    setup_s = m.m_setups;
    samples = m.m_samples;
    overhead_pct = m.m_overhead_pct;
    peak_heap_mb = m.m_peak_heap_mb;
    probes = m.m_probes;
    attempted = i.sent;
    failed = instance_failed i;
    lat_ms = Metrics.sorted_of_list lat;
    sim_ops_per_s = Some (1e3 *. float_of_int ops /. sim_ms i.outcome.Service.o_makespan);
    (* A closed loop offers no rate and has no latency target: a
       request's latency is one round of every other tenant. *)
    limit_ms = None;
    slo_met_pct = None;
    max_rate_hz = None;
    jain = Some (Slo.jain (tenant_means i));
    digest;
    layers;
    details;
    spans;
    notes =
      [
        Printf.sprintf
          "%d requests from %d tenants; the service flagged %d tenants starved \
           (not counted as failures)"
          ops wide.tenants (List.length i.outcome.Service.o_starved);
      ];
    errors = List.rev !errors;
  }

(* {2 serve-open} *)

let open_shape =
  {
    policy = Sched_policy.Grouped;
    translation = Translation_mode.Iommu_sva;
    tenants = 16;
    requests = 250;
    bytes = 1024;
  }

(* Each rung runs this many independent service instances, each with
   its own 16 tenants and traffic. Pooling them gives every rung 2000
   requests, so its p99 has 20 samples beyond it, and averages over
   eight tenant populations instead of one, which is what keeps the
   rung's latency and host cost from swinging with the seed. *)
let replicas = 8

let open_limit_ms = 150.0

(* About 0.5x to 1.2x of the knee (~47 req/s), climbed in order. *)
let ladder = [| 24; 32; 36; 40; 42; 44; 46; 48; 52; 56 |]

(* The reference rung: a fixed rate, so two commits are compared at the
   same offered load. The latency metrics and the per-layer figures are
   taken there, and the host samples come from it and the rungs below,
   which always run. It sits at about 0.7x the knee: closer in, the p99
   of one seed's traffic differs from the next seed's by more than any
   bound could allow. *)
let ref_rung = 1

let instance_seed ~seed ~unit = Prng.next (Prng.derive ~seed ~index:unit) land 0x3FFF_FFFF

let to_rung rate instances =
  let lat pred =
    List.concat_map
      (fun i ->
        let last_quarter = i.sent - (i.sent / 4) in
        Array.to_list i.completions
        |> List.filter (pred ~last_quarter)
        |> List.map latency_ms)
      instances
    |> Metrics.sorted_of_list
  in
  let sum f = List.fold_left (fun a i -> a + f i) 0 instances in
  {
    Metrics.rate_hz = rate;
    sent = sum (fun i -> i.sent);
    refused = sum (fun i -> i.refused);
    verified = sum verified;
    latencies_ms = lat (fun ~last_quarter:_ _ -> true);
    last_quarter_ms =
      lat (fun ~last_quarter (c : Tenant.completion) -> c.Tenant.c_rid >= last_quarter);
  }

let rung_note (r : Metrics.rung) =
  Printf.sprintf "rung %2d req/s: %s; %s; last quarters %s; refused %d -> %s"
    r.Metrics.rate_hz
    (Metrics.describe ~unit:"ms" (Metrics.percentile r.Metrics.latencies_ms 5000))
    (Metrics.describe ~unit:"ms" (Metrics.percentile r.Metrics.latencies_ms 9900))
    (match Metrics.highest_reportable r.Metrics.last_quarter_ms with
    | Some q -> Metrics.describe ~unit:"ms" q
    | None -> "n/a")
    r.Metrics.refused
    (if Metrics.rung_passes ~limit_ms:open_limit_ms r then "meets the limit"
     else "misses the limit")

let serve_open ~seed ~seconds ~traced =
  let main = if traced then Some (new_tracer ()) else None in
  let spans = Option.map (fun t -> t.spans) main in
  let n = Array.length ladder * replicas in
  let units = Array.make n None and errors = ref [] in
  let rung_instances k =
    List.init replicas (fun j -> Option.map fst units.((k * replicas) + j))
    |> List.filter_map Fun.id
  in
  (* Climb until the first rung at or past the reference rung that
     misses the limit; the rungs above it are not run. *)
  let stopped = ref false in
  let m =
    measure ~sampled:((ref_rung + 1) * replicas) ~seconds ~main ~n_units:n
      (fun ~reference ~tr index ->
        if reference && !stopped then { ops = 0; host_s = 0.0; setup = None }
        else begin
          let k = index / replicas in
          let rate = ladder.(k) in
          (* The reference cycle records the reference rung only. *)
          let tr = if reference && k <> ref_rung then None else tr in
          let i =
            run_instance open_shape ~seed:(instance_seed ~seed ~unit:index) ~rate ~tr
              ~op:index
          in
          let digest = instance_digest i in
          (if reference then begin
             units.(index) <- Some (i, digest);
             if
               index mod replicas = replicas - 1
               && k >= ref_rung
               && not
                    (Metrics.rung_passes ~limit_ms:open_limit_ms
                       (to_rung rate (rung_instances k)))
             then stopped := true
           end
           else
             match units.(index) with
             | Some (_, d) when d <> digest ->
               errors :=
                 Printf.sprintf "serve-open unit %d (%d req/s) differs on repeat"
                   index rate
                 :: !errors
             | _ -> ());
          {
            ops = Array.length i.completions;
            host_s = i.run_s;
            setup = (if k <= ref_rung then Some i.build_s else None);
          }
        end)
  in
  let ran =
    List.init (Array.length ladder) (fun k -> (ladder.(k), rung_instances k))
    |> List.filter (fun (_, is) -> List.length is = replicas)
  in
  let instances = List.concat_map snd ran in
  let knee = rung_instances ref_rung in
  let rung_list, lat =
    Spans.wrap spans "report" ~op:(-1) (fun () ->
        ( List.map (fun (rate, is) -> to_rung rate is) ran,
          List.concat_map (fun i -> Array.to_list (Array.map latency_ms i.completions)) knee ))
  in
  let sum f is = List.fold_left (fun a i -> a + f i) 0 is in
  let layers, details =
    match main with Some t -> service_layers t ~instances:knee | None -> ([], [])
  in
  let met =
    min (sum verified knee) (List.length (List.filter (fun l -> l <= open_limit_ms) lat))
  in
  {
    setup_s = m.m_setups;
    samples = m.m_samples;
    overhead_pct = m.m_overhead_pct;
    peak_heap_mb = m.m_peak_heap_mb;
    probes = m.m_probes;
    attempted = sum (fun i -> i.sent) instances;
    failed = sum instance_failed instances;
    lat_ms = Metrics.sorted_of_list lat;
    (* An open loop completes what it is offered: its simulated
       throughput is the rung's rate. *)
    sim_ops_per_s = None;
    limit_ms = Some open_limit_ms;
    slo_met_pct = Some (Metrics.pct_of met ~whole:(sum (fun i -> i.sent) knee));
    max_rate_hz = Some (float_of_int (Metrics.max_rate ~limit_ms:open_limit_ms rung_list));
    jain = Some (Slo.jain (List.concat_map tenant_means knee));
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "+" (List.filter_map (Option.map snd) (Array.to_list units))));
    layers;
    details;
    spans;
    notes =
      Printf.sprintf
        "latency metrics and per-layer figures at the reference rung, %d req/s, %d \
         instances of %d requests; host samples from the rungs up to it"
        ladder.(ref_rung) replicas open_shape.requests
      :: List.map rung_note rung_list
      @ [
          Printf.sprintf
            "tenants the service flagged starved, per rung (not counted as failures): %s"
            (String.concat " "
               (List.map
                  (fun (rate, is) ->
                    Printf.sprintf "%d@%d/%d"
                      (sum (fun i -> List.length i.outcome.Service.o_starved) is)
                      rate (replicas * open_shape.tenants))
                  ran));
        ];
    errors = List.rev !errors;
  }

let all =
  [ ("campaign", campaign); ("serve-wide", serve_wide); ("serve-open", serve_open) ]
