(* Benchmark entry point. Prints every metric by name with its unit, then
   one JSON object as the last line of standard output: end-to-end
   metrics with [--trace 0], per-layer metrics with [--trace 1]. Exits 1
   when an output check fails. *)

open Perfbench
module W = Workloads

let usage =
  "main.exe --workload {campaign|serve-wide|serve-open} --seed N --seconds S \
   --trace {0|1}\n\
   main.exe --check-fingerprint"

(* Per-layer metrics in output order, with units. A metric a workload
   does not exercise reads 0; one it cannot observe through the public
   API reads -1. *)
let per_layer =
  [
    ("op_host_ms.p50", "ms");
    ("op_host_ms.p95", "ms");
    ("alloc_words_per_op", "words");
    ("sim.events_per_op", "count");
    ("sim.host_ns_per_event", "ns");
    ("imu.accesses_per_op", "count");
    ("imu.stall_cycles_per_op", "cycles");
    ("tlb.hit_pct", "%");
    ("tlb.misses_per_op", "count");
    ("walker.walks_per_op", "count");
    ("walker.walk_faults_per_op", "count");
    ("l2.hit_pct", "%");
    ("vim.faults_per_op", "count");
    ("vim.evictions_per_op", "count");
    ("vim.writebacks_per_op", "count");
    ("vim.premapped_per_op", "count");
    ("vim.recoveries_per_op", "count");
    ("os.sim_hw_ms_per_op", "ms");
    ("os.sim_sw_dp_ms_per_op", "ms");
    ("os.sim_sw_imu_ms_per_op", "ms");
    ("os.sim_sw_os_ms_per_op", "ms");
    ("os.interrupts_per_op", "count");
    ("inject.injected_per_run", "count");
    ("inject.recovered_pct", "%");
    ("inject.degraded_pct", "%");
    ("svc.queue_wait_ms.p50", "ms");
    ("svc.queue_wait_ms.p99", "ms");
    ("svc.exec_ms.p50", "ms");
    ("svc.exec_ms.p99", "ms");
    ("svc.reconfig_per_request", "count");
    ("svc.config_time_pct", "%");
    ("svc.refused_pct", "%");
    ("trace.overhead_pct", "%");
    ("trace.self_s.inputs", "s");
    ("trace.self_s.build", "s");
    ("trace.self_s.exec", "s");
    ("trace.self_s.observe", "s");
    ("trace.self_s.report", "s");
  ]

(* Which layer each span the benchmark records belongs to. *)
let layer_of_span = function
  | "inputs" | "loadgen.create" -> "inputs"
  | "warmup.run_one" | "service.create" -> "build"
  | "faults.run_one" | "service.run" -> "exec"
  | "inspect" | "feed.next_arrival" | "feed.deliver" | "feed.notify" -> "observe"
  | "report" -> "report"
  | s -> invalid_arg ("unknown span " ^ s)

let layer_self_times spans =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (name, s) ->
      let l = layer_of_span name in
      Hashtbl.replace totals l (s +. Option.value ~default:0.0 (Hashtbl.find_opt totals l)))
    (Metrics.self_times (Spans.spans spans));
  List.map
    (fun l ->
      ("trace.self_s." ^ l, W.Value (Option.value ~default:0.0 (Hashtbl.find_opt totals l))))
    [ "inputs"; "build"; "exec"; "observe"; "report" ]

(* A metric that does not apply to a workload reads -1 there (see
   README.md, "End-to-end metrics"). The median is printed with its
   sample count but is not an end-to-end metric: on the campaign it is
   the simulated time of one fault-free run, the same for every seed. *)
let not_applicable = -1.0

(* [ops_per_s] is every sampled op over the samples' summed host time
   (reference-host seconds), not a median of per-unit rates: units do
   unequal work (one instance's traffic against another's), and summing
   weights each by its work. *)
let end_to_end (r : W.result) =
  let p50 = Metrics.percentile r.W.lat_ms 5000 in
  let p99 = Metrics.percentile r.W.lat_ms 9900 in
  let ops = List.fold_left (fun a s -> a + s.W.ops) 0 r.W.samples in
  let host_s = List.fold_left (fun a s -> a +. s.W.host_s) 0.0 r.W.samples in
  let opt = Option.value ~default:not_applicable in
  ( [
      ("setup_s", Metrics.median r.W.setup_s, "s");
      ("ops_per_s", float_of_int ops /. host_s, "1/s");
      ("peak_heap_mb", r.W.peak_heap_mb, "MB");
      ( "verified_pct",
        Metrics.pct_of (r.W.attempted - r.W.failed) ~whole:r.W.attempted,
        "%" );
      ("sim_ms_per_op", Metrics.mean (Array.to_list r.W.lat_ms), "ms");
      ("sim_ops_per_s", opt r.W.sim_ops_per_s, "1/s");
      ("sim_p99_ms", p99.Metrics.value, "ms");
      ("sim_slo_met_pct", opt r.W.slo_met_pct, "%");
      ("sim_max_rate_hz", opt r.W.max_rate_hz, "1/s");
      ("jain", opt r.W.jain, "index");
    ],
    [ (p50, "sim_p50_ms"); (p99, "sim_p99_ms") ] )

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let finite (_, v, _) = Float.is_finite v

(* Where the traced run writes its spans, relative to the checkout. *)
let spans_dir = "perfbench-out"

let run_workload ~name ~seed ~seconds ~traced =
  let run =
    match List.assoc_opt name W.all with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
      exit 2
  in
  let t0 = Unix.gettimeofday () in
  let r = run ~seed ~seconds ~traced in
  Printf.printf "workload %s, seed %d, %s run: %.1f s, %d measured units\n" name
    seed
    (if traced then "traced" else "untraced")
    (Unix.gettimeofday () -. t0)
    (List.length r.W.samples);
  Printf.printf "simulation fingerprint (md5): %s\n" r.W.digest;
  Option.iter (Printf.printf "  latency limit %.0f ms\n") r.W.limit_ms;
  Printf.printf "  %d ops attempted, %d failed\n" r.W.attempted r.W.failed;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.W.notes;
  let e2e, pcts = end_to_end r in
  let errors =
    r.W.errors
    @ List.filter_map
        (fun ((q : Metrics.pct), label) ->
          if Metrics.reportable q then None
          else
            Some
              (Printf.sprintf "%s: only %d samples beyond it (need %d)" label
                 q.Metrics.beyond Metrics.min_beyond))
        pcts
    @ (if r.W.failed > 0 then
         [ Printf.sprintf "%d of %d operations failed" r.W.failed r.W.attempted ]
       else [])
  in
  Printf.printf "end-to-end (%s):\n" (if traced then "informational; traced run" else "untraced");
  List.iter
    (fun (n, v, u) ->
      if v = not_applicable then Printf.printf "  %-18s %14s\n" n "n/a (-1)"
      else Printf.printf "  %-18s %14.4f %s\n" n v u)
    e2e;
  List.iter
    (fun ((q : Metrics.pct), label) ->
      Printf.printf "  %s: %s\n" label (Metrics.describe ~unit:"ms" q))
    pcts;
  (match Metrics.highest_reportable r.W.lat_ms with
  | Some q -> Printf.printf "  highest reportable percentile: %s\n" (Metrics.describe ~unit:"ms" q)
  | None -> ());
  Printf.printf
    "  host speed: %d probes, median %.4f s, range %.4f-%.4f s (reference host %.4f s)\n"
    (List.length r.W.probes) (Metrics.median r.W.probes)
    (List.fold_left Float.min Float.infinity r.W.probes)
    (List.fold_left Float.max 0.0 r.W.probes)
    Hostspeed.reference_s;
  Printf.printf "  unit rates (1/s, reference host): %s\n"
    (String.concat " "
       (List.map
          (fun s -> Printf.sprintf "%.1f" (float_of_int s.W.ops /. s.W.host_s))
          r.W.samples));
  Printf.printf "  setup samples (s, reference host): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.W.setup_s));
  let metrics =
    if not traced then e2e
    else begin
      let spans = Option.get r.W.spans in
      let layers =
        r.W.layers @ layer_self_times spans
        @ [ ("trace.overhead_pct", W.Value (Option.get r.W.overhead_pct)) ]
      in
      let ms =
        List.map
          (fun (name, unit) ->
            let v =
              match List.assoc_opt name layers with
              | Some (W.Value v) -> v
              | Some W.Unobservable -> -1.0
              | None -> 0.0
            in
            (name, v, unit))
          per_layer
      in
      Printf.printf "per-layer (traced run; -1 = not observable here):\n";
      List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.6f %s\n" n v u) ms;
      List.iter (fun l -> Printf.printf "  %s\n" l) r.W.details;
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" name seed) in
      Spans.write_jsonl spans path;
      Printf.printf "spans written to %s\n" path;
      ms
    end
  in
  let errors =
    errors
    @ List.filter_map
        (fun ((n, _, _) as m) -> if finite m then None else Some (n ^ " is not finite"))
        metrics
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let correct = errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.W.attempted r.W.failed
    (json_metrics (List.filter finite metrics));
  exit (if correct then 0 else 1)

(* The seed-42, 200-run paper-mode campaign CSV is pinned byte for byte;
   the benchmark's own run schedule must reproduce it too. *)
let fingerprint_md5 = "1fcb48985627bfc27b5473af8b7a22e6"

let check_fingerprint () =
  let md5 rs = Digest.to_hex (Digest.string (Rvi_harness.Faults.csv rs)) in
  let lib = md5 (Rvi_harness.Faults.campaign ~runs:200 ~seed:42 ()) in
  let seeds = W.campaign_seeds ~seed:42 ~runs:200 in
  let apps = Rvi_harness.Faults.workloads ~seed:42 in
  let pool = Rvi_harness.Platform.Pool.create () in
  let own = md5 (List.init 200 (fun i -> W.campaign_run ~pool ~seeds i apps.(i mod 4))) in
  Printf.printf "Faults.campaign seed 42, 200 runs: %s\n" lib;
  Printf.printf "benchmark schedule, same campaign: %s\n" own;
  Printf.printf "expected:                          %s\n" fingerprint_md5;
  if lib = fingerprint_md5 && own = fingerprint_md5 then begin
    print_endline "fingerprint ok";
    exit 0
  end
  else begin
    print_endline "fingerprint MISMATCH";
    exit 1
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0)
  and trace = ref (-1) and check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--check-fingerprint", Arg.Set check, " check the seed-42 campaign md5");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !check then check_fingerprint ()
  else if !workload = "" || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end
  else
    run_workload ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
