(** The virtual interface side of {!Port} (Figure 4 signals).

    Pulses [CP_ACCESS] for one cycle per request and waits for the IMU's
    [CP_TLBHIT]; stalls transparently across page faults — the coprocessor
    logic never knows a fault happened, which is exactly the paper's
    abstraction. Asserting {!finish} holds [CP_FIN] until the next
    [CP_START].

    The IMU answers with single-cycle pulses in its own clock domain. A
    coprocessor on a divided clock (the paper's 6 MHz IDEA core against
    the 24 MHz memory subsystem) would miss them, so the port contains a
    synchroniser register stage that runs on the {e IMU clock}, after the
    IMU and before the coprocessor — this is the "stall mechanism"
    synchronisation of §4.1. {!fused_component} wires all three into one
    clock slot; {!sync_component} registers the stage on its own. *)

type t

val create : Rvi_core.Cp_port.t -> t

val fused_component :
  t ->
  imu:Rvi_core.Imu.t ->
  clock:Rvi_sim.Clock.t ->
  divide:int ->
  Rvi_sim.Clock.component ->
  Rvi_sim.Clock.component
(** [fused_component t ~imu ~clock ~divide coproc] is one component for
    [clock] that behaves exactly like [Imu.component imu],
    [sync_component t] and [coproc] registered in that order, the last
    with [~divide]: the IMU and the synchroniser tick on every edge, the
    coprocessor on the edges whose {!Rvi_sim.Clock.cycles} index is a
    multiple of [divide], and each phase runs IMU, then synchroniser,
    then coprocessor. The idle hint counts IMU edges: the coprocessor's
    own hint [h] wakes it [h * divide] edges after its next enabled edge.
    A skip of [k] edges goes whole to the IMU and as the number of
    enabled edges among them to the coprocessor. Register it alone on
    [clock] (it reads [clock]'s cycle count). Raises [Invalid_argument]
    if [divide < 1]. *)

val sync_component : t -> Rvi_sim.Clock.component
(** The synchroniser stage alone: latches the IMU's response pulses into
    sticky flags the coprocessor consumes at its own rate. Register on
    the IMU clock between [Imu.component] and the coprocessor. *)

val accesses : t -> int
(** Requests issued since creation. *)

(** {1 Coprocessor side}

    The operations {!Port} forwards to; see there for their contract. *)

val sample : t -> unit
val start_seen : t -> bool

val issue :
  t ->
  region:int ->
  addr:int ->
  wr:bool ->
  width:Rvi_core.Cp_port.width ->
  data:int ->
  unit

val busy : t -> bool
val ready : t -> bool
val data : t -> int
val finish : t -> unit
val commit : t -> unit
val reset : t -> unit
val quiescent : t -> bool
