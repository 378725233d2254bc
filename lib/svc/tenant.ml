module Simtime = Rvi_sim.Simtime
module Histogram = Rvi_sim.Histogram
module Jobs = Rvi_harness.Jobs

type status = Clean | Recovered of int | Degraded

let status_name = function
  | Clean -> "clean"
  | Recovered n -> Printf.sprintf "recovered%d" n
  | Degraded -> "degraded"

type request = {
  rid : int;
  tenant : int;
  kind : Jobs.app_kind;
  seed : int;
  bytes : int;
  submitted_at : Simtime.t;
}

type completion = {
  c_rid : int;
  c_tenant : int;
  c_kind : Jobs.app_kind;
  c_status : status;
  c_preemptions : int;
  c_retries : int;
  c_submitted_at : Simtime.t;
  c_started_at : Simtime.t;
  c_finished_at : Simtime.t;
}

let latency c = Simtime.sub c.c_finished_at c.c_submitted_at
let latency_us c = Simtime.to_ps (latency c) / 1_000_000

type t = {
  id : int;
  weight : int;
  sq : request Ring.t;
  cq : completion Ring.t;
  mutable vtime : float;
  mutable submitted : int;
  mutable dropped : int;
  mutable completed : int;
  mutable degraded : int;
  mutable recovered : int;
  mutable pending : int;
  mutable last_progress : Simtime.t;
  mutable starved : bool;
  mutable cq_overruns : int;
  lat : Histogram.t;
  mutable doorbell : int -> unit;
}

let no_doorbell (_ : int) = ()

let create ~id ~weight ~sq_capacity ~cq_capacity =
  if weight <= 0 then invalid_arg "Tenant.create: weight must be positive";
  {
    id;
    weight;
    sq = Ring.create ~capacity:sq_capacity;
    cq = Ring.create ~capacity:cq_capacity;
    vtime = 0.0;
    submitted = 0;
    dropped = 0;
    completed = 0;
    degraded = 0;
    recovered = 0;
    pending = 0;
    last_progress = Simtime.zero;
    starved = false;
    cq_overruns = 0;
    lat = Histogram.create ();
    doorbell = no_doorbell;
  }

let submit t req =
  if Ring.push t.sq req then begin
    t.submitted <- t.submitted + 1;
    t.pending <- t.pending + 1;
    t.doorbell t.id;
    true
  end
  else begin
    t.dropped <- t.dropped + 1;
    false
  end

let complete t c =
  t.completed <- t.completed + 1;
  t.pending <- t.pending - 1;
  t.last_progress <- c.c_finished_at;
  (match c.c_status with
  | Clean -> ()
  | Recovered _ -> t.recovered <- t.recovered + 1
  | Degraded -> t.degraded <- t.degraded + 1);
  Histogram.add t.lat (float_of_int (latency_us c));
  if not (Ring.push t.cq c) then begin
    (* The consumer lags: age out the oldest completion so the ring
       keeps the most recent window, and account the overrun. *)
    ignore (Ring.pop t.cq);
    ignore (Ring.push t.cq c);
    t.cq_overruns <- t.cq_overruns + 1
  end

let mean_latency_us t =
  if Histogram.count t.lat = 0 then 0.0 else Histogram.mean t.lat
