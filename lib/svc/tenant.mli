(** A tenant of the coprocessor service: a pair of descriptor rings
    (submission and completion), a fair-share weight and the running
    accounting the SLO report is computed from. *)

type status =
  | Clean  (** first execution verified *)
  | Recovered of int  (** verified after this many whole-execution retries *)
  | Degraded  (** software fallback: output written by the reference *)

val status_name : status -> string

type request = {
  rid : int;  (** globally unique request id *)
  tenant : int;
  kind : Rvi_harness.Jobs.app_kind;
  seed : int;  (** workload generator seed *)
  bytes : int;  (** input size (already kind-aligned) *)
  submitted_at : Rvi_sim.Simtime.t;
}

type completion = {
  c_rid : int;
  c_tenant : int;
  c_kind : Rvi_harness.Jobs.app_kind;
  c_status : status;
  c_preemptions : int;
  c_retries : int;
  c_submitted_at : Rvi_sim.Simtime.t;
  c_started_at : Rvi_sim.Simtime.t;
  c_finished_at : Rvi_sim.Simtime.t;
}

val latency : completion -> Rvi_sim.Simtime.t
(** Submission to completion. *)

val latency_us : completion -> int

type t = {
  id : int;
  weight : int;  (** WFQ share, >= 1 *)
  sq : request Ring.t;
  cq : completion Ring.t;
  mutable vtime : float;  (** virtual service received, in us per weight *)
  mutable submitted : int;
  mutable dropped : int;  (** refused at a full submission ring *)
  mutable completed : int;
  mutable degraded : int;
  mutable recovered : int;
  mutable pending : int;  (** submitted, not yet completed *)
  mutable last_progress : Rvi_sim.Simtime.t;
  mutable starved : bool;
  mutable cq_overruns : int;
  lat : Rvi_sim.Histogram.t;  (** per-request latency, microseconds *)
  mutable doorbell : int -> unit;
      (** rung with [id] by every accepted {!submit} (the virtqueue
          "kick"); a no-op until a service attaches its own *)
}

val create : id:int -> weight:int -> sq_capacity:int -> cq_capacity:int -> t

val submit : t -> request -> bool
(** Push onto the submission ring; [false] (and a [dropped] tick) when
    the ring is full — the admission-control refusal. An accepted
    request rings the {!doorbell}; a refused one does not. *)

val complete : t -> completion -> unit
(** Records the completion: counters, latency histogram, progress stamp,
    completion-ring push (aging out the oldest entry on overrun). *)

val mean_latency_us : t -> float
