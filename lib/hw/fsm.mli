(** Finite-state-machine scaffolding.

    A thin layer over {!Reg} that names the machine, exposes the current
    state during the compute phase, and renders states for waveform and log
    output. Coprocessor and IMU control paths are written as [Fsm]s. *)

type 'a t

val create : name:string -> init:'a -> show:('a -> string) -> 'a t

val state : 'a t -> 'a
(** Committed (pre-edge) state — what combinational logic sees. *)

val goto : 'a t -> 'a -> unit
(** Selects the state entered at the next commit. *)

val stay : 'a t -> unit
(** Explicitly keep the current state (equivalent to [goto m (state m)]). *)

val commit : 'a t -> unit

val reset : 'a t -> 'a -> unit

val fast_forward : 'a t -> transitions:int -> 'a -> unit
(** [fast_forward m ~transitions s] applies the aggregate effect of a
    skipped idle span in one step: the machine lands in [s] (both register
    views, as between edges) and {!transitions} is advanced by the number
    of state-changing commits the span would have performed. Used by
    components implementing the {!Rvi_sim.Clock.component} [skip]
    contract for countdown states. *)

val name : 'a t -> string

val show : 'a t -> string
(** Rendering of the committed state. *)

val transitions : 'a t -> int
(** Number of commits that installed a physically different state value
    (machine activity measure). A {!stay} commit never counts; a {!goto}
    counts unless it passes the very value already held, so for boxed
    states a [goto] to a freshly built value counts even when it is
    structurally equal to the current state. Immediate states (constant
    constructors, ints) count exactly the commits that change the state. *)
