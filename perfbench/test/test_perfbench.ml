(* The benchmark's own arithmetic, and the workload properties its
   per-layer attribution relies on. *)

open Perfbench
module W = Workloads

let feq = Alcotest.float 1e-9
let sorted n = Array.init n (fun i -> float_of_int (i + 1))

(* {1 Percentiles} *)

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Metrics.rank ~n:1000 9900);
  Alcotest.(check int) "p50 of 101 is rank 51" 51 (Metrics.rank ~n:101 5000);
  Alcotest.(check int) "p50 of 1 is rank 1" 1 (Metrics.rank ~n:1 5000);
  let q = Metrics.percentile (sorted 1000) 9900 in
  Alcotest.check feq "value at rank" 990.0 q.Metrics.value;
  Alcotest.(check int) "n" 1000 q.Metrics.n;
  Alcotest.(check int) "beyond" 10 q.Metrics.beyond

let test_reportable () =
  let p n = Option.map (fun q -> q.Metrics.p_bp) (Metrics.highest_reportable (sorted n)) in
  Alcotest.(check (option int)) "1000 samples: p99" (Some 9900) (p 1000);
  Alcotest.(check (option int)) "999 samples: p95" (Some 9500) (p 999);
  Alcotest.(check (option int)) "250 samples: p95" (Some 9500) (p 250);
  Alcotest.(check (option int)) "5000 samples: p99.5" (Some 9950) (p 5000);
  Alcotest.(check (option int)) "20 samples: p50" (Some 5000) (p 20);
  Alcotest.(check (option int)) "9 samples: none" None (p 9);
  Alcotest.(check bool) "p99 of 100 is not reportable" false
    (Metrics.reportable (Metrics.percentile (sorted 100) 9900))

let test_median () =
  Alcotest.check feq "odd" 2.0 (Metrics.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Metrics.median [ 4.0; 1.0; 3.0; 2.0 ])

(* {1 Fairness} *)

let test_jain () =
  Alcotest.check feq "equal means" 1.0 (Rvi_svc.Slo.jain [ 5.0; 5.0; 5.0 ]);
  Alcotest.check feq "10 and 20 ms" 0.9 (Rvi_svc.Slo.jain [ 10.0; 20.0 ]);
  Alcotest.check feq "1 to 4 ms" (100.0 /. 120.0) (Rvi_svc.Slo.jain [ 1.0; 2.0; 3.0; 4.0 ])

(* {1 Ladder} *)

(* 1000 latencies whose p99 (rank 990) and above read [p99], and a last
   quarter of 250 whose p95 (rank 238, the highest with 10 samples
   beyond) and above read [last]. *)
let rung ?(refused = 0) ?verified ?(last = 40.0) rate ~p99 =
  let lat = Array.init 1000 (fun i -> if i >= 989 then p99 else 30.0) in
  {
    Metrics.rate_hz = rate;
    sent = 1000 + refused;
    refused;
    verified = Option.value ~default:(1000 + refused) verified;
    latencies_ms = lat;
    last_quarter_ms = Array.init 250 (fun i -> if i >= 237 then last else 30.0);
  }

let test_rung_passes () =
  let ok = rung 40 ~p99:100.0 in
  Alcotest.(check bool) "within the limit" true (Metrics.rung_passes ~limit_ms:150.0 ok);
  Alcotest.(check bool) "p99 over the limit" false
    (Metrics.rung_passes ~limit_ms:150.0 (rung 40 ~p99:151.0));
  Alcotest.(check bool) "a refused request" false
    (Metrics.rung_passes ~limit_ms:150.0 (rung 40 ~refused:1 ~p99:100.0));
  Alcotest.(check bool) "an unverified request" false
    (Metrics.rung_passes ~limit_ms:150.0 (rung 40 ~verified:999 ~p99:100.0));
  (* A backlog growing through the rung: the whole rung's p99 is fine,
     the last quarter's tail is not. *)
  Alcotest.(check bool) "growing backlog" false
    (Metrics.rung_passes ~limit_ms:150.0 (rung 40 ~p99:100.0 ~last:400.0))

let test_max_rate () =
  let pass r = rung r ~p99:100.0 and miss r = rung r ~p99:400.0 in
  Alcotest.(check int) "below the first miss" 40
    (Metrics.max_rate ~limit_ms:150.0 [ pass 24; pass 32; pass 40; miss 44; pass 48 ]);
  Alcotest.(check int) "every rung passes" 48
    (Metrics.max_rate ~limit_ms:150.0 [ pass 24; pass 48 ]);
  Alcotest.(check int) "the lowest rung misses" 0
    (Metrics.max_rate ~limit_ms:150.0 [ miss 24; pass 32 ])

(* {1 Failure accounting} *)

let test_failed_ops () =
  let f = Metrics.failed_ops in
  Alcotest.(check int) "clean" 0 (f ~attempted:100 ~completed:100 ~unverified:0 ~inconsistent:0);
  Alcotest.(check int) "refused or undelivered" 3
    (f ~attempted:100 ~completed:97 ~unverified:0 ~inconsistent:0);
  Alcotest.(check int) "unverified and inconsistent" 5
    (f ~attempted:100 ~completed:100 ~unverified:2 ~inconsistent:3);
  Alcotest.(check int) "never more than attempted" 10
    (f ~attempted:10 ~completed:8 ~unverified:8 ~inconsistent:8);
  Alcotest.check_raises "completed beyond attempted"
    (Invalid_argument "Metrics.failed_ops: completed outside [0, attempted]")
    (fun () -> ignore (f ~attempted:1 ~completed:2 ~unverified:0 ~inconsistent:0))

let test_run_failed () =
  let module F = Rvi_harness.Faults in
  let r outcome =
    { F.index = 0; seed = 0; app = "idea"; outcome; injected = 0; total_ms = 1.0 }
  in
  let failed ?(inconsistent = false) o = W.run_failed (r o) ~inconsistent in
  Alcotest.(check bool) "clean" false (failed F.Clean);
  Alcotest.(check bool) "recovered" false (failed (F.Recovered { retries = 1 }));
  Alcotest.(check bool) "verified fallback" false
    (failed (F.Degraded { reason = "x"; verified = true }));
  Alcotest.(check bool) "unverified fallback" true
    (failed (F.Degraded { reason = "x"; verified = false }));
  Alcotest.(check bool) "failed" true (failed (F.Failed "x"));
  Alcotest.(check bool) "crashed" true (failed (F.Crashed "x"));
  Alcotest.(check bool) "inconsistent interface" true (failed ~inconsistent:true F.Clean)

(* {1 Normalisation} *)

let test_per_op () =
  Alcotest.check feq "per op" 2.5 (Metrics.per_op 10.0 ~ops:4);
  Alcotest.check feq "percent of" 25.0 (Metrics.pct_of 1 ~whole:4);
  Alcotest.check feq "share of nothing" 0.0 (Metrics.share_pct 3.0 ~whole:0.0);
  Alcotest.check_raises "no ops" (Invalid_argument "Metrics.per_op: no operations")
    (fun () -> ignore (Metrics.per_op 1.0 ~ops:0))

(* {1 Spans} *)

let span name parent s e = { Metrics.s_name = name; s_parent = parent; s_start = s; s_stop = e }

let test_self_time () =
  let spans =
    [|
      span "run" (-1) 0.0 10.0;
      span "feed" 0 1.0 3.0;
      span "feed" 0 4.0 8.0;
      span "inner" 2 5.0 6.0;
      span "run" (-1) 20.0 21.0;
    |]
  in
  let self = Metrics.self_times spans in
  Alcotest.check feq "parent minus its children" 5.0 (List.assoc "run" self);
  Alcotest.check feq "children summed by name" 5.0 (List.assoc "feed" self);
  Alcotest.check feq "leaf" 1.0 (List.assoc "inner" self)

let test_recorder () =
  let t = Spans.create () in
  let outer = Spans.enter t "a" ~op:1 in
  let inner = Spans.enter t "b" ~op:2 in
  Alcotest.check_raises "outer closes first"
    (Invalid_argument "Spans.leave: spans must close innermost first") (fun () ->
      Spans.leave t outer);
  Spans.leave t inner;
  Spans.leave t outer;
  Alcotest.(check int) "wrap passes the value through" 7
    (Spans.wrap (Some t) "c" ~op:3 (fun () -> 7));
  let s = Spans.spans t in
  Alcotest.(check (list int)) "parents" [ -1; 0; -1 ]
    (Array.to_list (Array.map (fun x -> x.Metrics.s_parent) s));
  Array.iter
    (fun x -> Alcotest.(check bool) "ends after it starts" true (x.Metrics.s_stop >= x.Metrics.s_start))
    s

(* {1 Measuring loop} *)

(* A fake unit that logs how it was called: traced repeats take 110 s,
   untraced ones 100 s, against which the timed collection that ends
   each unit is negligible. *)
let logged_units () =
  let log = ref [] in
  let run_unit ~reference ~tr index =
    log := (index, reference, tr <> None) :: !log;
    let host_s = if tr <> None && not reference then 110.0 else 100.0 in
    { W.ops = 1; host_s; setup = Some 0.5 }
  in
  (log, run_unit)

(* A probe that always reads the reference host's time leaves host
   times as they were. *)
let reference_host () = Hostspeed.reference_s

let test_untraced_samples () =
  let log, run_unit = logged_units () in
  let { W.m_samples = samples; m_setups = setups; m_overhead_pct = overhead; _ } =
    W.measure ~probe:reference_host ~sampled:2 ~seconds:0.0 ~main:None ~n_units:4 run_unit
  in
  Alcotest.(check (list (triple int bool bool)))
    "one reference cycle, untraced"
    [ (0, true, false); (1, true, false); (2, true, false); (3, true, false) ]
    (List.rev !log);
  Alcotest.(check int) "samples from the sampled units only" 2 (List.length samples);
  Alcotest.(check int) "every set-up is timed" 4 (List.length setups);
  Alcotest.(check bool) "no overhead untraced" true (overhead = None)

(* Each repeat runs one unit twice, traced and untraced; every unit
   leads on both sides; the overhead compares the two runs of a unit. *)
let test_traced_pairs () =
  let log, run_unit = logged_units () in
  let { W.m_samples = samples; m_overhead_pct = overhead; _ } =
    W.measure ~probe:reference_host ~sampled:2 ~seconds:0.0 ~main:(Some (W.new_tracer ()))
      ~n_units:4 run_unit
  in
  let repeats = List.filter (fun (_, r, _) -> not r) (List.rev !log) in
  let rec pairs = function
    | (i, _, a) :: (j, _, b) :: rest ->
      Alcotest.(check int) "both halves run the same unit" i j;
      Alcotest.(check bool) "one traced, one not" true (a <> b);
      (i, a) :: pairs rest
    | [] -> []
    | _ -> Alcotest.fail "unpaired repeat"
  in
  let leads = pairs repeats in
  Alcotest.(check int) "four pairs" 4 (List.length leads);
  Alcotest.(check (list (pair int bool)))
    "each unit leads traced once and untraced once"
    [ (0, false); (0, true); (1, false); (1, true) ]
    (List.sort compare leads);
  Alcotest.(check int) "untraced halves are the samples" 4 (List.length samples);
  Alcotest.check (Alcotest.float 0.01) "overhead" 10.0 (Option.get overhead)

(* Each unit and the set-up timed with it are rescaled by the mean of
   the probes before and after the unit: here the host runs at half the
   reference speed, then at a quarter. *)
let test_rescaled_to_reference_host () =
  let _, run_unit = logged_units () in
  let probes = ref [ 2.0; 2.0; 4.0; 4.0 ] in
  let probe () =
    match !probes with
    | p :: rest ->
      probes := rest;
      p *. Hostspeed.reference_s
    | [] -> Alcotest.fail "more probes than units"
  in
  let m = W.measure ~probe ~seconds:0.0 ~main:None ~n_units:3 run_unit in
  Alcotest.(check int) "a probe before the first unit and after each" 4
    (List.length m.W.m_probes);
  Alcotest.(check (list (float 0.01)))
    "host times at the reference speed" [ 50.0; 100.0 /. 3.0; 25.0 ]
    (List.map (fun s -> s.W.host_s) m.W.m_samples);
  Alcotest.(check (list (float 0.001)))
    "set-ups at the reference speed" [ 0.25; 0.5 /. 3.0; 0.125 ] m.W.m_setups

(* {1 Workloads} *)

(* The benchmark replays [Faults.campaign]'s serial schedule run by run;
   a different seed and length than the pinned seed-42 check. *)
let test_campaign_schedule () =
  let module F = Rvi_harness.Faults in
  let seed = 3 and runs = 8 in
  let seeds = W.campaign_seeds ~seed ~runs in
  let apps = F.workloads ~seed in
  let pool = Rvi_harness.Platform.Pool.create () in
  Alcotest.(check string) "same CSV"
    (F.csv (F.campaign ~runs ~seed ()))
    (F.csv (List.init runs (fun i -> W.campaign_run ~pool ~seeds i apps.(i mod 4))))

let layer name layers =
  match List.assoc name layers with
  | W.Value v -> v
  | W.Unobservable -> Alcotest.failf "%s unobservable" name

let test_campaign_bypasses_walker () =
  let seed = 5 and runs = 8 in
  let seeds = W.campaign_seeds ~seed ~runs in
  let apps = Rvi_harness.Faults.workloads ~seed in
  let pool = Rvi_harness.Platform.Pool.create () in
  let t = W.new_tracer () in
  for i = 0 to runs - 1 do
    t.W.op_ms <- 1.0 :: t.W.op_ms;
    ignore
      (W.campaign_run ~inspect:(W.add_platform t.W.acc) ~pool ~seeds i apps.(i mod 4))
  done;
  let layers = W.common_layers t ~ops:runs ~host_s:1.0 ~observable_imu:true in
  Alcotest.check feq "no walks" 0.0 (layer "walker.walks_per_op" layers);
  Alcotest.check feq "no walk faults" 0.0 (layer "walker.walk_faults_per_op" layers);
  Alcotest.(check bool) "the IMU did work" true (layer "imu.accesses_per_op" layers > 0.0);
  Alcotest.(check bool) "the VIM paged" true (layer "vim.faults_per_op" layers > 0.0)

let instance shape ~rate =
  let t = W.new_tracer () in
  let i = W.run_instance shape ~seed:9 ~rate ~tr:(Some t) ~op:0 in
  (i, fst (W.service_layers t ~instances:[ i ]))

let test_serve_wide_bypasses_paging () =
  let shape = { W.wide with W.tenants = 40; requests = 80 } in
  let i, layers = instance shape ~rate:0 in
  Alcotest.(check int) "every request completed" 80 (Array.length i.W.completions);
  Alcotest.check feq "premapped objects never fault" 0.0 (layer "vim.faults_per_op" layers);
  Alcotest.(check bool) "objects are premapped" true (layer "vim.premapped_per_op" layers > 0.0);
  Alcotest.(check bool) "station IMUs are reported unobservable, not zero" true
    (List.assoc "walker.walks_per_op" layers = W.Unobservable)

let test_serve_open_pages_on_demand () =
  let shape = { W.open_shape with W.requests = 40 } in
  let i, layers = instance shape ~rate:24 in
  Alcotest.(check int) "every request completed" 40 (Array.length i.W.completions);
  Alcotest.(check bool) "demand paging faults" true (layer "vim.faults_per_op" layers > 0.0);
  Alcotest.(check int) "none refused" 0 i.W.refused;
  let again, _ = instance shape ~rate:24 in
  Alcotest.(check string) "the digest repeats" (W.instance_digest i) (W.instance_digest again)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "reportable percentile" `Quick test_reportable;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "jain" `Quick test_jain;
          Alcotest.test_case "rung passes" `Quick test_rung_passes;
          Alcotest.test_case "max rate" `Quick test_max_rate;
          Alcotest.test_case "failed ops" `Quick test_failed_ops;
          Alcotest.test_case "failed campaign runs" `Quick test_run_failed;
          Alcotest.test_case "per op" `Quick test_per_op;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_recorder;
        ] );
      ( "measure",
        [
          Alcotest.test_case "untraced samples" `Quick test_untraced_samples;
          Alcotest.test_case "traced pairs" `Quick test_traced_pairs;
          Alcotest.test_case "rescaled to the reference host" `Quick
            test_rescaled_to_reference_host;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "campaign schedule" `Quick test_campaign_schedule;
          Alcotest.test_case "campaign bypasses the walker" `Quick
            test_campaign_bypasses_walker;
          Alcotest.test_case "serve-wide bypasses paging" `Quick
            test_serve_wide_bypasses_paging;
          Alcotest.test_case "serve-open pages on demand" `Quick
            test_serve_open_pages_on_demand;
        ] );
    ]
