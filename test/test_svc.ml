(* Tests for the multi-tenant service layer (rvi_svc): the descriptor
   ring against a functional-queue model, completion-id permutation and
   per-tenant FIFO through a whole serve cell, preemption soundness at
   every cycle offset of a short run in both translation modes,
   scheduler determinism across --jobs, the cross-tenant hang/reclaim
   isolation regression, starvation detection, the chaos integration of
   the tenants/SLO scenario axes, the doorbell-driven drain against a
   full scan, and allocation per request that stays flat in the tenant
   count. *)

module Simtime = Rvi_sim.Simtime
module Kernel = Rvi_os.Kernel
module Uspace = Rvi_os.Uspace
module Config = Rvi_harness.Config
module Platform = Rvi_harness.Platform
module Calibration = Rvi_harness.Calibration
module Workload = Rvi_harness.Workload
module Jobs = Rvi_harness.Jobs
module Api = Rvi_core.Api
module Vim = Rvi_core.Vim
module Translation_mode = Rvi_core.Translation_mode
module Fault = Rvi_inject.Fault
module Injector = Rvi_inject.Injector
module Ring = Rvi_svc.Ring
module Tenant = Rvi_svc.Tenant
module Sched_policy = Rvi_svc.Sched_policy
module Service = Rvi_svc.Service
module Loadgen = Rvi_svc.Loadgen
module Slo = Rvi_svc.Slo
module Serve = Rvi_svc.Serve
module Scenario = Rvi_scenario.Scenario
module Chaos = Rvi_scenario.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* {1 The descriptor ring} *)

let test_ring_basics () =
  let r = Ring.create ~capacity:3 in
  checkb "fresh ring is empty" true (Ring.is_empty r);
  checkb "push 1" true (Ring.push r 1);
  checkb "push 2" true (Ring.push r 2);
  checkb "push 3" true (Ring.push r 3);
  checkb "full ring refuses" false (Ring.push r 4);
  checki "length" 3 (Ring.length r);
  Alcotest.(check (option int)) "peek is oldest" (Some 1) (Ring.peek r);
  Alcotest.(check (option int)) "pop is oldest" (Some 1) (Ring.pop r);
  checkb "push after wrap" true (Ring.push r 4);
  Alcotest.(check (list int)) "FIFO across the wrap" [ 2; 3; 4 ]
    (Ring.to_list r);
  checkb "non-positive capacity rejected" true
    (try
       ignore (Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* Model-based: any interleaving of pushes and pops over any capacity
   behaves exactly like an unbounded functional queue truncated at the
   capacity — same acceptance, same pop order, nothing lost, nothing
   duplicated. *)
let prop_ring_model =
  QCheck.Test.make ~name:"ring matches the functional-queue model"
    ~count:500
    QCheck.(pair (int_range 1 5) (small_list (option small_nat)))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            let accepted = Ring.push r v in
            let fits = Queue.length model < cap in
            if fits then Queue.add v model;
            accepted = fits
          | None -> Ring.pop r = Queue.take_opt model)
        ops
      && Ring.to_list r = List.of_seq (Queue.to_seq model))

(* {1 Doorbell-driven drain} *)

type drain_op = Submit of int * int | Drain | Take of int

(* The reference the ready set must reproduce: every drain scans all
   tenants in ascending id and empties each ring before the next, until
   the backlog reaches its limit. *)
type scan_model = {
  m_rings : (int * int) Queue.t array;  (* (rid, kind index) *)
  m_cap : int;
  m_limit : int;
  m_stations : (int * int) Queue.t array;  (* (rid, enq_seq) *)
  mutable m_seq : int;
  mutable m_backlog : int;
}

let scan_submit m ~tenant ~rid ~kind =
  let q = m.m_rings.(tenant) in
  Queue.length q < m.m_cap && (Queue.add (rid, kind) q; true)

let scan_drain m =
  Array.iter
    (fun q ->
      while m.m_backlog < m.m_limit && not (Queue.is_empty q) do
        let rid, kind = Queue.pop q in
        Queue.add (rid, m.m_seq) m.m_stations.(kind);
        m.m_seq <- m.m_seq + 1;
        m.m_backlog <- m.m_backlog + 1
      done)
    m.m_rings

let scan_take m kind =
  match Queue.take_opt m.m_stations.(kind) with
  | Some x ->
    m.m_backlog <- m.m_backlog - 1;
    Some x
  | None -> None

let kind_gen = QCheck.Gen.int_bound (List.length Jobs.served - 1)

let submit_gen ~tenants =
  QCheck.Gen.(map2 (fun t k -> Submit (t, k)) (int_bound (tenants - 1)) kind_gen)

let drain_op_gen ~tenants =
  QCheck.Gen.(
    frequency
      [
        (6, submit_gen ~tenants);
        (2, return Drain);
        (2, map (fun k -> Take k) kind_gen);
      ])

let drain_case_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun tenants ->
    quad (return tenants) (int_range 1 4) (int_range 1 8)
      (pair
         (list_size (int_bound 30) (submit_gen ~tenants))
         (list_size (int_bound 80) (drain_op_gen ~tenants))))

let print_drain_op = function
  | Submit (t, k) -> Printf.sprintf "submit %d %d" t k
  | Drain -> "drain"
  | Take k -> Printf.sprintf "take %d" k

(* Random submission schedules — some before [Service.create], with
   rings small enough to refuse and a backlog limit small enough to cut
   a drain off mid-ring — deliver the same (rid, enq_seq) sequence to
   every station queue as the full ascending scan, and a refused submit
   never rings the doorbell. *)
let prop_doorbell_drain_matches_scan =
  let kinds = Array.of_list Jobs.served in
  QCheck.Test.make ~name:"doorbell drain matches the full-scan drain"
    ~count:300
    (QCheck.make
       ~print:(fun (t, cap, limit, (pre, post)) ->
         Printf.sprintf "tenants=%d cap=%d limit=%d pre=[%s] post=[%s]" t cap
           limit
           (String.concat "; " (List.map print_drain_op pre))
           (String.concat "; " (List.map print_drain_op post)))
       drain_case_gen)
    (fun (n, cap, limit, (pre, post)) ->
      let tenants =
        Array.init n (fun id ->
            Tenant.create ~id ~weight:1 ~sq_capacity:cap ~cq_capacity:1)
      in
      let model =
        {
          m_rings = Array.init n (fun _ -> Queue.create ());
          m_cap = cap;
          m_limit = limit;
          m_stations = Array.map (fun _ -> Queue.create ()) kinds;
          m_seq = 0;
          m_backlog = 0;
        }
      in
      let rid = ref 0 in
      let submit tenant k =
        let r = !rid in
        incr rid;
        let accepted =
          Tenant.submit tenants.(tenant)
            {
              Tenant.rid = r;
              tenant;
              kind = kinds.(k);
              seed = r;
              bytes = 256;
              submitted_at = Simtime.zero;
            }
        in
        accepted = scan_submit model ~tenant ~rid:r ~kind:k
      in
      (* before the service exists: count the rings of a private bell *)
      let rings = ref 0 in
      Array.iter
        (fun (tn : Tenant.t) -> tn.Tenant.doorbell <- (fun _ -> incr rings))
        tenants;
      let pre_ok =
        List.for_all
          (function Submit (t, k) -> submit t k | Drain | Take _ -> false)
          pre
      in
      let accepted_pre =
        Array.fold_left (fun a (tn : Tenant.t) -> a + tn.Tenant.submitted) 0
          tenants
      in
      let svc =
        Service.create (Config.default ())
          {
            (Service.default_params Sched_policy.Fcfs) with
            Service.sp_backlog_limit = limit;
            sp_sdram_bytes = 1 lsl 16;
          }
          ~tenants
      in
      let post_ok =
        List.for_all
          (function
            | Submit (t, k) -> submit t k
            | Drain ->
              Service.drain svc;
              scan_drain model;
              true
            | Take k -> Service.take svc kinds.(k) = scan_take model k)
          post
      in
      (* then everything still queued or ringed, station by station *)
      let rec flush () =
        Service.drain svc;
        scan_drain model;
        let same = ref true and moved = ref false in
        Array.iteri
          (fun k kind ->
            let rec go () =
              let got = Service.take svc kind in
              if got <> scan_take model k then same := false
              else if got <> None then begin
                moved := true;
                go ()
              end
            in
            go ())
          kinds;
        !same && ((not !moved) || flush ())
      in
      pre_ok && post_ok && flush () && !rings = accepted_pre)

(* Minor words allocated per request in an fcfs closed loop. *)
let words_per_request ~tenants ~requests =
  let lg = Loadgen.create ~seed:7 ~tenants ~requests ~rate_hz:0 ~bytes:256 () in
  let svc =
    Service.create (Config.default ())
      (Service.default_params Sched_policy.Fcfs)
      ~tenants:(Loadgen.tenants lg)
  in
  let w0 = Gc.minor_words () in
  let outcome = Service.run svc (Loadgen.feed lg) ~expect:requests in
  let words = Gc.minor_words () -. w0 in
  checki "every request completed" requests outcome.Service.o_completed;
  words /. float_of_int requests

(* With a doorbell-driven drain the dispatcher's allocation follows the
   requests, not the tenants: 10x the tenants costs at most 10% more
   words per request. (A drain that visits every tenant each quantum
   allocates roughly twice as much per request at 1000 tenants as at
   100.) *)
let test_alloc_flat_in_tenants () =
  let requests = 2000 in
  let w100 = words_per_request ~tenants:100 ~requests in
  let w1000 = words_per_request ~tenants:1000 ~requests in
  if w1000 > 1.1 *. w100 then
    Alcotest.failf "words/request %.0f at 1000 tenants vs %.0f at 100 (>10%%)"
      w1000 w100

(* {1 Service-level identities through a whole serve cell} *)

let small_cell ?(policy = Sched_policy.Wfq)
    ?(translation = Translation_mode.Paper_objects) ?(seed = 7)
    ?(tenants = 3) ?(requests = 24) ?(rate_hz = 0) () =
  {
    Serve.cl_policy = policy;
    cl_translation = translation;
    cl_seed = seed;
    cl_tenants = tenants;
    cl_requests = requests;
    cl_rate_hz = rate_hz;
    cl_quantum_us = 50;
    cl_bytes = 128;
  }

let csv_rows csv =
  String.split_on_char '\n' csv
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> String.split_on_char ',' l)

(* Closed loop: every request completes exactly once (the completion
   rids are a permutation of the submission rids), in submission order
   within each tenant. *)
let test_completions_are_a_permutation () =
  let r = Serve.run_cell (small_cell ()) in
  Alcotest.(check (list string)) "no invariant violations" []
    (Serve.violations r);
  let rows = csv_rows r.Serve.cr_csv in
  checki "one row per request" 24 (List.length rows);
  let rids = List.map (fun row -> int_of_string (List.nth row 2)) rows in
  Alcotest.(check (list int)) "rids are a permutation of submissions"
    (List.init 24 Fun.id)
    (List.sort compare rids);
  (* per-tenant FIFO: within a tenant, completion order = rid order *)
  let per_tenant = Hashtbl.create 4 in
  List.iter
    (fun row ->
      let tenant = int_of_string (List.nth row 3) in
      let rid = int_of_string (List.nth row 2) in
      let prev = Option.value ~default:(-1) (Hashtbl.find_opt per_tenant tenant) in
      checkb "per-tenant completions in submission order" true (rid > prev);
      Hashtbl.replace per_tenant tenant rid)
    rows

let test_campaign_jobs_invariant () =
  let cells =
    Serve.cells ~policies:Sched_policy.all
      ~translations:[ Translation_mode.Paper_objects ] ~seed:11 ~tenants:4
      ~requests:24 ~rate_hz:0 ~quantum_us:50 ~bytes:64
  in
  let serial = Serve.campaign cells in
  let parallel = Serve.campaign ~jobs:2 cells in
  checks "per-request digest independent of --jobs" (Serve.digest serial)
    (Serve.digest parallel);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        ("clean run: " ^ Serve.cell_label r.Serve.cr_cell)
        [] (Serve.violations r))
    serial

(* {1 Preemption soundness}

   A short ADPCM execution, preempted at every cycle offset, the parked
   interface scrambled (the whole shared dual-port RAM clobbered — the
   observable effect of another station's tenant using the interface
   while this one is parked), then resumed and run to completion: the
   output must be byte-identical to the reference and the VIM
   consistency checker clean, in both translation modes. The scramble
   is the cross-station hazard the service actually exposes a parked
   context to: stations share the dual-port RAM but own their IMU,
   frame table and coprocessor, and a station's parked tenant shadows
   fresh work of its kind, so no second execution ever runs on the
   parked station itself. *)

let adpcm_input = Workload.adpcm_stream ~seed:9 ~bytes:8

let adpcm_setup p =
  let ok = function
    | Ok () -> ()
    | Error _ -> Alcotest.fail "adpcm setup failed"
  in
  let in_buf = Platform.alloc_bytes p adpcm_input in
  let out_buf =
    Platform.alloc p
      (Rvi_coproc.Adpcm_ref.decoded_size (Bytes.length adpcm_input))
  in
  ok (Api.fpga_load p.Platform.api Calibration.adpcm_bitstream);
  ok
    (Api.fpga_map_object p.Platform.api ~id:Rvi_coproc.Adpcm_coproc.obj_in
       ~buf:in_buf ~dir:Rvi_core.Mapped_object.In ~stream:true ());
  ok
    (Api.fpga_map_object p.Platform.api ~id:Rvi_coproc.Adpcm_coproc.obj_out
       ~buf:out_buf ~dir:Rvi_core.Mapped_object.Out ~stream:true ());
  match
    Vim.exec_start ~page_table:p.Platform.proc.Rvi_os.Proc.page_table
      p.Platform.vim
      ~params:[ Bytes.length adpcm_input ]
  with
  | Ok session -> (session, out_buf)
  | Error _ -> Alcotest.fail "exec_start failed"

let rec pump_to_done p session =
  let until =
    Simtime.add (Kernel.now p.Platform.kernel) (Simtime.of_ms 10)
  in
  match Vim.exec_pump p.Platform.vim session ~until with
  | `Done r -> r
  | `Running -> pump_to_done p session

let scramble_dpram p =
  let dpram = p.Platform.dpram in
  let page_size = Rvi_mem.Dpram.page_size dpram in
  let junk = Bytes.make page_size '\xa5' in
  for page = 0 to Rvi_mem.Dpram.n_pages dpram - 1 do
    Rvi_mem.Dpram.load_page dpram ~page junk ~src:0 ~len:page_size
  done

let preemption_soundness translation () =
  let cfg = { (Config.default ()) with Config.translation } in
  let expected = Rvi_coproc.Adpcm_ref.decode adpcm_input in
  let p =
    Platform.create ~app_name:"svc-preempt" cfg
      ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.create
  in
  (* Unpreempted reference run, and the cycle count to sweep. *)
  let session, out_buf = adpcm_setup p in
  let t_begin = Kernel.now p.Platform.kernel in
  (match pump_to_done p session with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unpreempted run failed");
  checkb "unpreempted output matches the reference" true
    (Bytes.equal (Platform.read p out_buf) expected);
  let cycle_ps =
    1_000_000_000_000
    / Calibration.adpcm_bitstream.Rvi_fpga.Bitstream.imu_freq_hz
  in
  let total_cycles =
    (Simtime.to_ps (Simtime.sub (Kernel.now p.Platform.kernel) t_begin)
    + cycle_ps - 1)
    / cycle_ps
  in
  checkb "run is long enough to sweep" true (total_cycles > 4);
  let preempted = ref 0 in
  for k = 1 to total_cycles do
    Platform.reset p cfg;
    let session, out_buf = adpcm_setup p in
    let t0 = Kernel.now p.Platform.kernel in
    let label = Printf.sprintf "offset %d/%d" k total_cycles in
    let result =
      match
        Vim.exec_pump p.Platform.vim session
          ~until:(Simtime.add t0 (Simtime.of_ps (k * cycle_ps)))
      with
      | `Done r -> r
      | `Running ->
        incr preempted;
        let ctx = Vim.exec_preempt p.Platform.vim session in
        scramble_dpram p;
        let session = Vim.exec_resume p.Platform.vim ctx in
        pump_to_done p session
    in
    (match result with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (label ^ ": resumed run failed"));
    checkb (label ^ ": output matches the reference") true
      (Bytes.equal (Platform.read p out_buf) expected);
    match Vim.consistency p.Platform.vim with
    | Ok () -> ()
    | Error m -> Alcotest.fail (label ^ ": inconsistent after resume: " ^ m)
  done;
  checkb "sweep actually preempted mid-run" true (!preempted > 4)

(* {1 Cross-tenant isolation}

   Regression for the latent single-tenant assumptions in the VIM abort
   and watchdog paths: one tenant's injected coprocessor hang — watchdog
   fire, abort hook, interface reclaim — must not corrupt or wake
   another tenant's in-flight request. Tenant 1 runs concurrently
   (preempted in and out under WFQ while tenant 0 sits hung) and must
   complete Clean with verified output; and the hung tenant's watchdog
   budget must survive parking, so the hang is reclaimed rather than
   livelocking (historically resume re-armed the watchdog from scratch,
   so a hung tenant preempted every quantum never aborted). *)

let test_cross_tenant_hang_isolation () =
  let inj = Injector.create ~seed:3 ~spec:[] in
  Injector.set_events inj [ (Fault.Coproc_hang, 1) ];
  let cfg =
    {
      (Config.default ()) with
      Config.injector = Some inj;
      watchdog = Simtime.of_ms 1;
      exec_retries = 0;
      seed = 3;
    }
  in
  let tenant id =
    Tenant.create ~id ~weight:1 ~sq_capacity:8 ~cq_capacity:8
  in
  let tenants = [| tenant 0; tenant 1 |] in
  let submit id kind seed =
    let bytes = Jobs.align kind 256 in
    checkb "submitted" true
      (Tenant.submit tenants.(id)
         {
           Tenant.rid = id;
           tenant = id;
           kind;
           seed;
           bytes;
           submitted_at = Simtime.zero;
         })
  in
  (* Tenant 0 dispatches first (drain order) and catches the hang. *)
  submit 0 Jobs.Adpcm 13;
  submit 1 Jobs.Idea 14;
  let svc =
    Service.create cfg (Service.default_params Sched_policy.Wfq) ~tenants
  in
  let outcome = Service.run svc Service.null_feed ~expect:2 in
  checki "both requests completed" 2 outcome.Service.o_completed;
  checkb "hang was reclaimed, not livelocked" true
    (not outcome.Service.o_exhausted);
  Alcotest.(check (list int)) "nobody starved" [] outcome.Service.o_starved;
  Alcotest.(check (list string)) "interfaces consistent" []
    outcome.Service.o_inconsistencies;
  let completion tn =
    match Ring.to_list tenants.(tn).Tenant.cq with
    | [ c ] -> c
    | l -> Alcotest.fail (Printf.sprintf "tenant %d: %d completions" tn (List.length l))
  in
  let c0 = completion 0 and c1 = completion 1 in
  checks "hung tenant degrades to the verified fallback" "degraded"
    (Tenant.status_name c0.Tenant.c_status);
  checks "the other tenant's request is untouched" "clean"
    (Tenant.status_name c1.Tenant.c_status);
  checkb "victim ran concurrently with the hang" true
    (outcome.Service.o_preemptions >= 1);
  checki "the bystander never needed a retry" 0 c1.Tenant.c_retries

(* The distilled livelock regression at the VIM level: an execution
   that hangs on its first opportunity is preempted and resumed every
   quantum. The watchdog budget must be carried across each park —
   resume used to re-arm it from scratch, so the stall was never
   reclaimed as long as a preemptive scheduler kept slicing. *)
let test_watchdog_budget_survives_preemption () =
  let inj = Injector.create ~seed:7 ~spec:[] in
  Injector.set_events inj [ (Fault.Coproc_hang, 1) ];
  let watchdog = Simtime.of_ms 1 in
  let cfg =
    { (Config.default ()) with Config.injector = Some inj; watchdog; seed = 7 }
  in
  let p =
    Platform.create ~app_name:"svc-livelock" cfg
      ~bitstream:Calibration.adpcm_bitstream
      ~make:Rvi_coproc.Adpcm_coproc.create
  in
  let session, _ = adpcm_setup p in
  let quantum = Simtime.of_us 50 in
  let t0 = Kernel.now p.Platform.kernel in
  (* Each slice consumes 50 us of watchdog budget but also pays the
     park/resume copy charges, so the reclaim lands well past the bare
     1 ms budget — yet with the budget carried across parks it is still
     bounded. Re-arming on resume (the old bug) never terminates. *)
  let give_up = Simtime.add t0 (Simtime.of_ms 500) in
  let session = ref session in
  let preempts = ref 0 in
  let result = ref None in
  while !result = None do
    let now = Kernel.now p.Platform.kernel in
    checkb "watchdog reclaims the hang despite slicing" true
      (Simtime.compare now give_up < 0);
    match Vim.exec_pump p.Platform.vim !session ~until:(Simtime.add now quantum) with
    | `Done r -> result := Some r
    | `Running ->
      incr preempts;
      let ctx = Vim.exec_preempt p.Platform.vim !session in
      session := Vim.exec_resume p.Platform.vim ctx
  done;
  (match !result with
  | Some (Error Vim.Hardware_stall) -> ()
  | Some (Ok ()) -> Alcotest.fail "hung execution reported success"
  | Some (Error _) -> Alcotest.fail "unexpected error kind"
  | None -> assert false);
  checkb "the stall really was sliced while hung" true (!preempts >= 5)

(* {1 Starvation detection} *)

let test_starvation_detection () =
  let cfg = { (Config.default ()) with Config.seed = 5 } in
  let lg =
    Loadgen.create ~seed:5 ~tenants:4 ~requests:80 ~rate_hz:0 ~bytes:64 ()
  in
  let params =
    {
      (Service.default_params Sched_policy.Fcfs) with
      Service.sp_starvation_budget = Simtime.of_ps 1;
    }
  in
  let svc = Service.create cfg params ~tenants:(Loadgen.tenants lg) in
  let outcome = Service.run svc (Loadgen.feed lg) ~expect:80 in
  checkb "a zero budget flags waiting tenants as starved" true
    (outcome.Service.o_starved <> []);
  let report = Slo.build ~tenants:(Loadgen.tenants lg) ~outcome in
  Alcotest.(check (list int)) "the SLO report carries the same list"
    outcome.Service.o_starved report.Slo.r_starved

(* {1 Chaos integration: scenario axes and the new invariants} *)

let test_scenario_tenant_axes_roundtrip () =
  let sc = { Scenario.default with Scenario.tenants = 5; slo_p99_ms = 250 } in
  (match Scenario.of_string (Scenario.to_string sc) with
  | Ok sc' -> checkb "tenant axes round-trip bit-exactly" true (sc' = sc)
  | Error m -> Alcotest.fail m);
  (* Pre-axis corpus lines parse with the single-tenant defaults. *)
  (match Scenario.of_string "seed=1" with
  | Ok sc' ->
    checki "omitted tenants defaults to 1" 1 sc'.Scenario.tenants;
    checki "omitted slo defaults to none" 0 sc'.Scenario.slo_p99_ms
  | Error m -> Alcotest.fail m);
  checkb "tenants=0 rejected" true
    (Result.is_error (Scenario.of_string "tenants=0"));
  checkb "negative slo rejected" true
    (Result.is_error (Scenario.of_string "slo_ms=-1"))

let test_violation_classes () =
  checks "starved class" "starved" (Chaos.violation_class (Chaos.Starved 3));
  checks "starved detail" "tenant 3 starved"
    (Chaos.violation_detail (Chaos.Starved 3));
  checks "slo-insane class" "slo-insane"
    (Chaos.violation_class (Chaos.Slo_insane "x"))

let test_chaos_service_route () =
  (* A clean multi-tenant scenario passes through the service route. *)
  let sc = { Scenario.default with Scenario.tenants = 3 } in
  let r = Chaos.run sc in
  checks "clean multi-tenant run passes" "pass" (Chaos.classification r);
  checkb "service route has no single-tenant runs" true (r.Chaos.runs = []);
  (* An absurd declared objective is reported as slo-insane. *)
  let sc = { Scenario.default with Scenario.tenants = 2; slo_p99_ms = 1 } in
  checks "declared SLO breach classifies slo-insane" "slo-insane"
    (Chaos.classification (Chaos.run sc))

(* {1 Multiprogramming: a closed batch on one tenant} *)

module Multiprog = Rvi_svc.Multiprog

let test_multiprog_batch () =
  let jobs = Multiprog.mixed_batch ~seed:3 ~jobs_per_app:3 in
  checki "batch size" 9 (List.length jobs);
  let cfg = Config.default () in
  let fcfs = Multiprog.run cfg Sched_policy.Fcfs jobs in
  let grouped = Multiprog.run cfg Sched_policy.Grouped jobs in
  checkb "fcfs all verified" true fcfs.Multiprog.verified;
  checkb "grouped all verified" true grouped.Multiprog.verified;
  let fo = fcfs.Multiprog.outcome and go = grouped.Multiprog.outcome in
  checki "fcfs jobs done" 9 fo.Service.o_completed;
  checki "fcfs reconfigures every job" 9 fo.Service.o_reconfigurations;
  checki "grouped reconfigures once per app" 3 go.Service.o_reconfigurations;
  checkb "grouping cuts the makespan" true
    Simtime.(go.Service.o_makespan < fo.Service.o_makespan)

let test_multiprog_single_kind () =
  (* A homogeneous batch configures once under either policy. *)
  let jobs =
    List.init 4 (fun i -> { Multiprog.kind = Jobs.Adpcm; seed = i; bytes = 2048 })
  in
  let r = Multiprog.run (Config.default ()) Sched_policy.Fcfs jobs in
  checki "one configuration" 1 r.Multiprog.outcome.Service.o_reconfigurations;
  checkb "verified" true r.Multiprog.verified

let prop_grouped_minimises_reconfig =
  QCheck.Test.make
    ~name:"grouped dispatch reconfigures once per application kind" ~count:5
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, per_app) ->
      let jobs = Multiprog.mixed_batch ~seed ~jobs_per_app:per_app in
      let r = Multiprog.run (Config.default ()) Sched_policy.Grouped jobs in
      r.Multiprog.outcome.Service.o_reconfigurations = 3 && r.Multiprog.verified)

(* {1 One registry, two execution paths} *)

(* Where the objects of [input] land on a fresh kernel: both paths
   allocate a request's buffers first, in object order, from an empty
   arena. *)
let output_bufs input =
  let engine = Rvi_sim.Engine.create () in
  let cost =
    Rvi_os.Cost_model.default ~cpu_freq_hz:Rvi_harness.Calibration.cpu_freq_hz
  in
  let scratch = Kernel.create ~engine ~cost ~sdram_bytes:(1 lsl 20) () in
  Jobs.alloc scratch (Jobs.objects input)
  |> List.filter (fun ((o : Jobs.obj), _) ->
         o.Jobs.dir = Rvi_core.Mapped_object.Out)
  |> List.map snd

(* The blocking runner and the sliced service read every recipe from the
   registry: for any served kind, seed and size, both verify and leave
   byte-identical output buffers. *)
let prop_runner_matches_service =
  let served = Array.of_list Jobs.served in
  QCheck.Test.make ~name:"runner and service outputs agree"
    ~count:6
    QCheck.(
      triple (int_bound (Array.length served - 1)) (int_bound 10_000)
        (int_bound 6_000))
    (fun (k, seed, extra) ->
      let kind = served.(k) in
      let bytes = Jobs.align kind ((Jobs.spec kind).Jobs.min_bytes + extra) in
      let input = Jobs.generate kind ~seed ~bytes in
      let cfg = Config.default () in
      let runner_out = ref [] in
      let row =
        Rvi_harness.Runner.run_virtual cfg input ~inspect:(fun p ->
            runner_out := List.map (Platform.read p) (output_bufs input))
      in
      let tenant = Tenant.create ~id:0 ~weight:1 ~sq_capacity:1 ~cq_capacity:1 in
      ignore
        (Tenant.submit tenant
           {
             Tenant.rid = 0;
             tenant = 0;
             kind;
             seed;
             bytes;
             submitted_at = Simtime.zero;
           });
      let svc =
        Service.create cfg (Service.default_params Sched_policy.Fcfs)
          ~tenants:[| tenant |]
      in
      ignore (Service.run svc Service.null_feed ~expect:1);
      let service_out =
        List.map (Uspace.read (Service.kernel svc)) (output_bufs input)
      in
      let expected = List.map snd (Jobs.reference input) in
      row.Rvi_harness.Report.verified
      && tenant.Tenant.completed = 1
      && tenant.Tenant.degraded = 0
      && List.for_all2 Bytes.equal !runner_out service_out
      && List.for_all2 Bytes.equal service_out expected)

(* {1 Tracing} *)

(* The service shares the platform's wiring, so an injector's faults
   reach the trace exactly as on the blocking path: one [Inject] event
   per injected fault. *)
let test_service_traces_injections () =
  let inj = Injector.create ~seed:11 ~spec:(Rvi_inject.Spec.all ()) in
  let trace = Rvi_obs.Trace.create ~capacity:(1 lsl 20) () in
  let cfg =
    {
      (Config.default ()) with
      Config.injector = Some inj;
      trace = Some trace;
      watchdog = Rvi_harness.Faults.default_watchdog;
    }
  in
  let lg =
    Loadgen.create ~seed:11 ~tenants:4 ~requests:100 ~rate_hz:0 ~bytes:2048 ()
  in
  let svc =
    Service.create cfg (Service.default_params Sched_policy.Fcfs)
      ~tenants:(Loadgen.tenants lg)
  in
  let outcome = Service.run svc (Loadgen.feed lg) ~expect:100 in
  checki "every request completed" 100 outcome.Service.o_completed;
  checki "nothing dropped from the trace" 0 (Rvi_obs.Trace.dropped trace);
  let injected = Injector.injected_total inj in
  checkb "faults were injected" true (injected > 0);
  let traced =
    List.length
      (List.filter
         (fun (e : Rvi_obs.Trace.event) ->
           match e.Rvi_obs.Trace.kind with
           | Rvi_obs.Trace.Inject _ -> true
           | _ -> false)
         (Rvi_obs.Trace.events trace))
  in
  checki "one Inject event per injected fault" injected traced

let suite =
  [
    Alcotest.test_case "ring/basics" `Quick test_ring_basics;
    QCheck_alcotest.to_alcotest prop_ring_model;
    Alcotest.test_case "service/completion-permutation" `Quick
      test_completions_are_a_permutation;
    Alcotest.test_case "serve/jobs-digest-invariant" `Slow
      test_campaign_jobs_invariant;
    Alcotest.test_case "preempt/soundness-paper" `Slow
      (preemption_soundness Translation_mode.Paper_objects);
    Alcotest.test_case "preempt/soundness-sva" `Slow
      (preemption_soundness Translation_mode.Iommu_sva);
    Alcotest.test_case "service/cross-tenant-hang-isolation" `Quick
      test_cross_tenant_hang_isolation;
    Alcotest.test_case "vim/watchdog-budget-survives-preemption" `Quick
      test_watchdog_budget_survives_preemption;
    Alcotest.test_case "service/starvation-detection" `Slow
      test_starvation_detection;
    Alcotest.test_case "scenario/tenant-axes-roundtrip" `Quick
      test_scenario_tenant_axes_roundtrip;
    Alcotest.test_case "chaos/violation-classes" `Quick test_violation_classes;
    Alcotest.test_case "chaos/service-route" `Slow test_chaos_service_route;
    Alcotest.test_case "multiprog/mixed-batch" `Slow test_multiprog_batch;
    Alcotest.test_case "multiprog/single-kind" `Quick test_multiprog_single_kind;
    QCheck_alcotest.to_alcotest prop_grouped_minimises_reconfig;
    QCheck_alcotest.to_alcotest prop_runner_matches_service;
    Alcotest.test_case "service/traced-injections" `Quick
      test_service_traces_injections;
    QCheck_alcotest.to_alcotest prop_doorbell_drain_matches_scan;
    Alcotest.test_case "service/alloc-flat-in-tenants" `Slow
      test_alloc_flat_in_tenants;
  ]
