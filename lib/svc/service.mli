(** The multi-tenant coprocessor service.

    One physical platform with a station per served application kind
    ({!Rvi_harness.Jobs.served}; each a {!Rvi_harness.Platform.station}:
    own IMU, clock domain, VIM on a dedicated interrupt line), driven
    through {!Rvi_core.Vim}'s sliced-execution API: per-tenant
    submission rings feed per-kind dispatch queues, a {!Sched_policy}
    picks the next candidate, and under the preemptive policy a running
    tenant can be parked mid-execution and resumed later without
    observable difference. Requests are built from the application
    registry ({!Rvi_harness.Jobs}).

    Invariants the tests lean on:
    - at most one parked context per station, and a station's parked
      tenant resumes before fresh work of its kind;
    - only the dispatched station's clock runs (single-PLD discipline);
    - every completion is verified against the host reference; failed
      executions retry up to [Config.exec_retries] times and then take
      the verified software fallback ([Degraded]) — the service never
      delivers unverified output. *)

type params = {
  sp_policy : Sched_policy.t;
  sp_quantum : Rvi_sim.Simtime.t;  (** preemption quantum (positive) *)
  sp_sdram_bytes : int;
  sp_backlog_limit : int;
      (** admission control: submission rings are only drained while the
          in-service backlog is below this *)
  sp_aging : Rvi_sim.Simtime.t;  (** [Grouped]'s anti-starvation escape *)
  sp_starvation_budget : Rvi_sim.Simtime.t;
      (** a tenant with pending work and no progress for this long is
          reported starved *)
}

val default_params : Sched_policy.t -> params
(** 50 us quantum, 16 MB arena, backlog 4096, 50 ms aging, 2 s
    starvation budget. *)

type feed = {
  f_next_arrival : unit -> Rvi_sim.Simtime.t option;
  f_deliver : now:Rvi_sim.Simtime.t -> unit;
  f_notify : Tenant.completion -> now:Rvi_sim.Simtime.t -> unit;
}
(** The load generator half of the loop: [f_next_arrival] is the
    earliest undelivered open-loop arrival (for idle fast-forward),
    [f_deliver] moves every arrival due at [now] onto tenant rings,
    [f_notify] observes completions (closed-loop resubmission, CSV
    sinks). *)

val null_feed : feed

type t

val create : Rvi_harness.Config.t -> params -> tenants:Tenant.t array -> t
val kernel : t -> Rvi_os.Kernel.t
val tenants : t -> Tenant.t array

val vim_of_kind : t -> Rvi_harness.Jobs.app_kind -> Rvi_core.Vim.t
(** The station VIM, exposed for consistency inspection by tests and
    the chaos harness. *)

type outcome = {
  o_completed : int;
  o_makespan : Rvi_sim.Simtime.t;
  o_reconfigurations : int;
  o_configuration_time : Rvi_sim.Simtime.t;
  o_preemptions : int;
  o_resumes : int;
  o_starved : int list;  (** tenant ids, ascending *)
  o_inconsistencies : string list;
      (** [Vim.consistency] violations observed at completion
          boundaries *)
  o_exhausted : bool;  (** the dispatch-iteration backstop fired *)
}

val run : t -> feed -> expect:int -> outcome
(** Drives the service until every delivered request has completed and
    the feed has no further arrivals. [expect] sizes the liveness
    backstop (roughly the total request count). Per-tenant latency
    histograms and counters accumulate on the [tenants] array. *)
