(** The application registry.

    The paper's OS layer gives every application the same three calls:
    [FPGA_LOAD] its bit-stream, [FPGA_MAP_OBJECT] its objects,
    [FPGA_EXECUTE] with its parameters. This module is the one place that
    says, for each coprocessor application, what those are: the
    bit-stream and the virtual and normal coprocessor constructors
    ({!spec}), the input and its seeded generator ({!input},
    {!generate}), the objects and parameters ({!objects}, {!params}), and
    the software reference the output is verified against ({!reference}).
    The runner, the fault campaigns, the multi-tenant service and the CLI
    all read their recipes from here. *)

type app_kind = Adpcm | Idea | Fir | Vecadd

val all : app_kind list
(** Every application, in campaign rotation order. *)

val served : app_kind list
(** The applications the multi-tenant service runs a station for: a
    prefix of {!all}, so {!index} also indexes the service's stations. *)

val index : app_kind -> int
(** Dense position in {!all}. *)

val app_name : app_kind -> string
(** ["adpcm"], ["idea"], ["fir"] or ["vecadd"]. *)

val of_name : string -> app_kind option

type spec = {
  label : string;  (** application column of a {!Report.row} *)
  bitstream : Rvi_fpga.Bitstream.t;
      (** clocks the normal coprocessor too: IMU frequency and divide *)
  create : Rvi_coproc.Port.t -> Rvi_coproc.Coproc.t;
      (** the coprocessor, over a virtual or a direct port *)
  granule : int;  (** input sizes are multiples of this *)
  min_bytes : int;  (** smallest input the coprocessor accepts *)
  pad : bool;
      (** {!align} rounds up to the granule (IDEA pads a partial block)
          rather than down *)
}

val spec : app_kind -> spec

val align : app_kind -> int -> int
(** Rounds a size to the kind's granule and raises it to its minimum. *)

(** One prepared application input. *)
type input =
  | Adpcm_in of Bytes.t  (** IMA ADPCM stream *)
  | Idea_in of {
      mode : Rvi_coproc.Idea_coproc.mode;
      key : int array;
      iv : int array;  (** ignored by the ECB modes *)
      data : Bytes.t;
    }
  | Fir_in of { coeffs : int array; shift : int; data : Bytes.t }
  | Vecadd_in of { a : int array; b : int array }

val kind_of : input -> app_kind

val ecb : ?decrypt:bool -> key:int array -> Bytes.t -> input
(** IDEA in ECB mode (encryption by default). *)

val generate : app_kind -> seed:int -> bytes:int -> input
(** The seeded workload of the kind, sized [align kind bytes]: ADPCM
    streams, IDEA-encrypted random blocks, a 16-tap FIR over a noisy
    signal, or two random vectors. *)

val input_bytes : input -> int

type obj = {
  id : int;
  dir : Rvi_core.Mapped_object.direction;
  stream : bool;
  init : Bytes.t option;  (** initial contents for In/Inout objects *)
  size : int;
}
(** One object as [FPGA_MAP_OBJECT] declares it. *)

val objects : input -> obj list

val params : input -> int list
(** The [FPGA_EXECUTE] parameter words. *)

val reference : input -> (int * Bytes.t) list
(** The software reference: expected contents per output object. *)

val verify : (int * Bytes.t) list -> (int -> Bytes.t) -> bool
(** [verify expected read] holds when every output object read back
    through [read] equals its {!reference} contents. *)

val sw_cycles : input -> int
(** CPU cycles of the pure-software implementation. *)

val alloc : Rvi_os.Kernel.t -> obj list -> (obj * Rvi_os.Uspace.buf) list
(** Allocates one user buffer per object, in order, and writes the
    initial contents. *)
