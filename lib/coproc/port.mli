(** The memory port a coprocessor is written against.

    The paper's central portability claim is that the same coprocessor HDL
    runs unchanged behind the virtual interface (through the IMU) or — in
    the "typical coprocessor" baseline — against hardwired physical
    addresses. Every coprocessor is written against this one port type:
    a [t] is built either from a {!Vport.t} (the Figure 4 signal
    protocol) or from a {!Dport.t} (raw single-cycle dual-port accesses).
    The type is abstract, so a coprocessor cannot tell which of the two
    it drives.

    Discipline (enforced by assertions):
    - call {!val-sample} first in every compute phase;
    - {!issue} only when [not (busy t)];
    - after {!ready}, read data the same cycle. *)

type t

val of_vport : Vport.t -> t
val of_dport : Dport.t -> t

val sample : t -> unit
(** Latch the port inputs for this cycle. Must be the first port
    operation of a compute phase. *)

val start_seen : t -> bool
(** True on the cycle the start pulse arrives. *)

val issue :
  t ->
  region:int ->
  addr:int ->
  wr:bool ->
  width:Rvi_core.Cp_port.width ->
  data:int ->
  unit
(** Posts an access. [region] is the object identifier; region
    {!Rvi_core.Cp_port.param_obj} reads the scalar parameters. The request
    leaves at the next commit. *)

val read_param : t -> index:int -> unit
(** Posts the read of parameter word [index] (32-bit, little-endian
    layout in the parameter page). *)

val busy : t -> bool
(** An access is outstanding (issued and not yet completed). *)

val ready : t -> bool
(** The outstanding access completed this cycle; for reads {!data} is
    valid now. *)

val data : t -> int

val finish : t -> unit
(** Assert completion (held until the next start). *)

val commit : t -> unit
(** Drive the output signals; call from the component's commit phase. *)

val reset : t -> unit

val quiescent : t -> bool
(** Whether one [sample]/[commit] tick of the owning coprocessor would
    leave the port in exactly this state (no latched start or response
    to consume, no request to move) — the port half of the
    {!Rvi_sim.Clock.component} idle contract. Exact: [true] promises the
    tick is a no-op as long as no other component runs. *)
