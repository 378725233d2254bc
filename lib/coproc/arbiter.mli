(** Multi-coprocessor arbiter.

    §2 of the paper speaks of "the corresponding coprocessor(s)" — plural.
    This block lets several coprocessors share one IMU (and therefore the
    same paged dual-port memory and the same VIM, unchanged): each child
    gets its own [CP_*] bundle; the arbiter forwards one outstanding
    request at a time to the upstream port, round-robin, and routes the
    response back to its issuer. [CP_START] is re-broadcast to every
    child; the upstream [CP_FIN] is the conjunction of the children's.

    Every access is relocated per child, so independent kernels keep
    their own object numbering and their Figure 6 parameter layout:
    child [i]'s object [o] is object [o + obj_base.(i)] upstream, and it
    sees its scalars at the usual offsets while physically reading
    parameter words [i * slot_words] onwards. The relocated object
    identifiers must be disjoint.

    A registered (1-cycle each way) arbiter: a shared access costs two
    cycles more than a private one, the price of the port. *)

type t

val slot_words : int
(** Parameter words reserved per child (16). *)

val create :
  ?obj_base:int array ->
  upstream:Rvi_core.Cp_port.t ->
  children:int ->
  unit ->
  t
(** [obj_base] defaults to all zeros. Raises [Invalid_argument] unless
    [1 <= children <= 4] and [obj_base] has one entry per child. *)

val child_port : t -> int -> Rvi_core.Cp_port.t
(** The bundle to instantiate child [i]'s coprocessor against. *)

val component : t -> Rvi_sim.Clock.component
(** Register on the IMU clock, between the IMU and the child ports'
    synchronisers. *)

val grants : t -> int array
(** Requests forwarded per child (arbitration fairness counters). *)
