(** Finite-state-machine scaffolding.

    A two-phase state register that names the machine, exposes the current
    state during the compute phase, and renders states for waveform and log
    output. Coprocessor and IMU control paths are written as [Fsm]s.

    States are immediate values (constant constructors): a machine's
    per-state data — a countdown, a byte index, a resolved page — lives in
    plain mutable [int]/[bool] fields of the component that owns it, never
    in a constructor payload. That keeps every clock edge free of
    allocation and of the [caml_modify] write barrier a boxed or
    polymorphic state register pays on each store (see DESIGN.md §10). *)

module type STATE = sig
  type t [@@immediate]
  (** Only constant constructors (or ints): the [[@@immediate]]
      annotation is what lets {!Make} store states without a write
      barrier, and the compiler rejects a state type with a payload. *)

  val show : t -> string
end

module Make (S : STATE) : sig
  type t

  val create : name:string -> init:S.t -> t

  val state : t -> S.t
  (** Committed (pre-edge) state — what combinational logic sees. *)

  val goto : t -> S.t -> unit
  (** Selects the state entered at the next commit. *)

  val stay : t -> unit
  (** Explicitly keep the current state (equivalent to [goto m (state m)]). *)

  val commit : t -> unit

  val reset : t -> S.t -> unit
  (** Forces both register views (asynchronous reset). *)

  val name : t -> string

  val show : t -> string
  (** Rendering of the committed state. *)

  val transitions : t -> int
  (** Number of commits that changed the state (machine activity
      measure). A {!stay}, or a {!goto} of the state already held, never
      counts. Updates of a component's payload fields (a countdown
      ticking down inside one state) are not state changes, so an idle
      span a component skips through its payload needs no adjustment
      here. *)
end
