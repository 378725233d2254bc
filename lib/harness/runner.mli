(** System assembly and measurement runs.

    One function per version (software, VIM, normal coprocessor) over a
    {!Jobs.input}, plus one-line shorthands per application; each run
    builds a fresh simulated platform from a {!Config.t}, executes the
    workload through
    the full stack (syscalls, VIM, IMU, coprocessor) or the corresponding
    baseline, verifies the output against the software reference
    bit-for-bit, and returns a {!Report.row}. *)

(** {1 Generic runs of a registry input} *)

val run_virtual :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  Jobs.input ->
  Report.row
(** Full VIM-based run: [FPGA_LOAD] the kind's bit-stream, map its
    objects, [FPGA_EXECUTE] and verify every output object against the
    software reference.

    When the configuration carries an injector, a transient hardware error
    (or a clean exit with a bad output) is retried up to
    [Config.exec_retries] whole executions; exhaustion falls back to the
    software reference, which writes the output objects, and the row
    degrades to a verified [Report.Degraded].

    With [pool] the platform is borrowed from (and returned to) a
    {!Platform.Pool} under the application's label instead of being built
    per call — byte-identical results, a fraction of the host cost.

    [inspect] runs against the live platform after the run completes (and
    before it is returned to the pool): the chaos harness uses it to run
    the VIM consistency checker and read recovery statistics. *)

(** Host wall-clock spent in the virtual runs, split into setup (platform
    acquisition, buffers, load, map), execute (the FPGA_EXECUTE attempt
    loop) and report (stats reads, fallback, row assembly). Accumulates
    across calls until {!Phases.reset}; the campaign benchmark reads it to
    attribute serial time. *)
module Phases : sig
  val reset : unit -> unit

  val totals : unit -> float * float * float
  (** [(setup, execute, report)] in seconds. *)
end

val run_normal : Config.t -> Jobs.input -> Report.row
(** Normal-coprocessor run (manual placement, no OS support), clocked as
    the kind's bit-stream. Produces an [Exceeds_memory] outcome when the
    working set does not fit. *)

val run_sw : Config.t -> Jobs.input -> Report.row
(** Pure-software run: computes the reference and charges the software
    implementation's cycles ({!Jobs.sw_cycles}) of CPU time. *)

(** {1 The paper's applications} *)

val adpcm_sw : Config.t -> input:Bytes.t -> Report.row
val adpcm_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  input:Bytes.t ->
  Report.row
val adpcm_normal : Config.t -> input:Bytes.t -> Report.row

val idea_sw : Config.t -> key:int array -> input:Bytes.t -> Report.row
val idea_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  ?decrypt:bool ->
  Config.t ->
  key:int array ->
  input:Bytes.t ->
  Report.row
val idea_normal :
  ?decrypt:bool -> Config.t -> key:int array -> input:Bytes.t -> Report.row

val vecadd_sw : Config.t -> a:int array -> b:int array -> Report.row
val vecadd_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  a:int array ->
  b:int array ->
  Report.row

val fir_sw :
  Config.t -> coeffs:int array -> shift:int -> input:Bytes.t -> Report.row

val fir_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  coeffs:int array ->
  shift:int ->
  input:Bytes.t ->
  Report.row

val fir_normal :
  Config.t -> coeffs:int array -> shift:int -> input:Bytes.t -> Report.row

val idea_cbc_vim :
  ?pool:Platform.Pool.t ->
  ?inspect:(Platform.t -> unit) ->
  Config.t ->
  mode:Rvi_coproc.Idea_coproc.mode ->
  key:int array ->
  iv:int array ->
  input:Bytes.t ->
  Report.row
(** IDEA under an explicit block-cipher mode (the CBC extension); the row's
    version is tagged with the mode name. *)
