module Mapped_object = Rvi_core.Mapped_object
module Uspace = Rvi_os.Uspace
module Idea_coproc = Rvi_coproc.Idea_coproc

type app_kind = Adpcm | Idea | Fir | Vecadd

let all = [ Adpcm; Idea; Fir; Vecadd ]
let served = [ Adpcm; Idea; Fir ]
let index = function Adpcm -> 0 | Idea -> 1 | Fir -> 2 | Vecadd -> 3

let app_name = function
  | Adpcm -> "adpcm"
  | Idea -> "idea"
  | Fir -> "fir"
  | Vecadd -> "vecadd"

let of_name s = List.find_opt (fun k -> app_name k = s) all

let fir_taps = 16

type spec = {
  label : string;
  bitstream : Rvi_fpga.Bitstream.t;
  create : Rvi_coproc.Port.t -> Rvi_coproc.Coproc.t;
  granule : int;
  min_bytes : int;
  pad : bool;
}

let adpcm_spec =
  {
    label = "adpcmdecode";
    bitstream = Calibration.adpcm_bitstream;
    create = Rvi_coproc.Adpcm_coproc.create;
    granule = 1;
    min_bytes = 1;
    pad = false;
  }

let idea_spec =
  {
    label = "idea";
    bitstream = Calibration.idea_bitstream;
    create = Idea_coproc.create;
    granule = 8;
    min_bytes = 8;
    pad = true;
  }

let fir_spec =
  {
    label = "fir";
    bitstream = Calibration.fir_bitstream;
    create = Rvi_coproc.Fir_coproc.create;
    granule = 2;
    (* two taps' worth: at least one output sample *)
    min_bytes = 2 * fir_taps;
    pad = false;
  }

let vecadd_spec =
  {
    label = "vecadd";
    bitstream = Calibration.vecadd_bitstream;
    create = Rvi_coproc.Vecadd.create;
    granule = 8;
    min_bytes = 8;
    pad = false;
  }

let spec = function
  | Adpcm -> adpcm_spec
  | Idea -> idea_spec
  | Fir -> fir_spec
  | Vecadd -> vecadd_spec

let align kind bytes =
  let s = spec kind in
  let g = s.granule in
  max s.min_bytes ((if s.pad then bytes + g - 1 else bytes) / g * g)

(* {1 Inputs} *)

type input =
  | Adpcm_in of Bytes.t
  | Idea_in of {
      mode : Idea_coproc.mode;
      key : int array;
      iv : int array;
      data : Bytes.t;
    }
  | Fir_in of { coeffs : int array; shift : int; data : Bytes.t }
  | Vecadd_in of { a : int array; b : int array }

let kind_of = function
  | Adpcm_in _ -> Adpcm
  | Idea_in _ -> Idea
  | Fir_in _ -> Fir
  | Vecadd_in _ -> Vecadd

let ecb ?(decrypt = false) ~key data =
  Idea_in
    {
      mode = (if decrypt then Idea_coproc.Ecb_decrypt else Idea_coproc.Ecb_encrypt);
      key;
      iv = [| 0; 0; 0; 0 |];
      data;
    }

let generate kind ~seed ~bytes =
  let bytes = align kind bytes in
  match kind with
  | Adpcm -> Adpcm_in (Workload.adpcm_stream ~seed ~bytes)
  | Idea ->
    ecb ~key:(Workload.idea_key ~seed) (Workload.idea_plaintext ~seed ~bytes)
  | Fir ->
    Fir_in
      {
        coeffs = Workload.fir_coeffs ~taps:fir_taps;
        shift = 12;
        data = Workload.fir_signal ~seed ~bytes;
      }
  | Vecadd ->
    let a, b = Workload.vectors ~seed ~n:(bytes / 8) in
    Vecadd_in { a; b }

let input_bytes = function
  | Adpcm_in data | Idea_in { data; _ } | Fir_in { data; _ } -> Bytes.length data
  | Vecadd_in { a; _ } -> 8 * Array.length a

(* {1 The FPGA_MAP_OBJECT / FPGA_EXECUTE contract} *)

type obj = {
  id : int;
  dir : Mapped_object.direction;
  stream : bool;
  init : Bytes.t option;
  size : int;
}

let input_obj id data =
  {
    id;
    dir = Mapped_object.In;
    stream = true;
    init = Some data;
    size = Bytes.length data;
  }

let output_obj id size =
  { id; dir = Mapped_object.Out; stream = true; init = None; size }

let bytes_of_words words =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int32_le b (4 * i) (Int32.of_int w)) words;
  b

(* Little-endian 16-bit coefficient file. *)
let coeff_file coeffs =
  let b = Bytes.create (2 * Array.length coeffs) in
  Array.iteri (fun i c -> Bytes.set_uint16_le b (2 * i) (c land 0xFFFF)) coeffs;
  b

let objects = function
  | Adpcm_in data ->
    [
      input_obj Rvi_coproc.Adpcm_coproc.obj_in data;
      output_obj Rvi_coproc.Adpcm_coproc.obj_out
        (Rvi_coproc.Adpcm_ref.decoded_size (Bytes.length data));
    ]
  | Idea_in { data; _ } ->
    [
      input_obj Idea_coproc.obj_in data;
      output_obj Idea_coproc.obj_out (Bytes.length data);
    ]
  | Fir_in { coeffs; data; _ } ->
    [
      input_obj Rvi_coproc.Fir_coproc.obj_in data;
      {
        (input_obj Rvi_coproc.Fir_coproc.obj_coeff (coeff_file coeffs)) with
        stream = false;
      };
      output_obj Rvi_coproc.Fir_coproc.obj_out
        (Rvi_coproc.Fir_ref.output_bytes ~taps:(Array.length coeffs)
           (Bytes.length data));
    ]
  | Vecadd_in { a; b } ->
    [
      input_obj Rvi_coproc.Vecadd.obj_a (bytes_of_words a);
      input_obj Rvi_coproc.Vecadd.obj_b (bytes_of_words b);
      output_obj Rvi_coproc.Vecadd.obj_c (4 * Array.length a);
    ]

let fir_outputs ~coeffs data = (Bytes.length data / 2) - Array.length coeffs + 1

let params = function
  | Adpcm_in data -> [ Bytes.length data ]
  | Idea_in { mode; key; iv; data } ->
    Idea_coproc.params_mode ~n_blocks:(Bytes.length data / 8) ~mode ~key ~iv ()
  | Fir_in { coeffs; shift; data } ->
    Rvi_coproc.Fir_coproc.params ~n_out:(fir_outputs ~coeffs data)
      ~taps:(Array.length coeffs) ~shift
  | Vecadd_in { a; _ } -> [ Array.length a ]

let reference = function
  | Adpcm_in data ->
    [ (Rvi_coproc.Adpcm_coproc.obj_out, Rvi_coproc.Adpcm_ref.decode data) ]
  | Idea_in { mode; key; iv; data } ->
    let out =
      match mode with
      | Idea_coproc.Ecb_encrypt -> Rvi_coproc.Idea_ref.ecb ~key ~decrypt:false data
      | Idea_coproc.Ecb_decrypt -> Rvi_coproc.Idea_ref.ecb ~key ~decrypt:true data
      | Idea_coproc.Cbc_encrypt ->
        Rvi_coproc.Idea_ref.cbc ~key ~decrypt:false ~iv data
      | Idea_coproc.Cbc_decrypt ->
        Rvi_coproc.Idea_ref.cbc ~key ~decrypt:true ~iv data
    in
    [ (Idea_coproc.obj_out, out) ]
  | Fir_in { coeffs; shift; data } ->
    [
      ( Rvi_coproc.Fir_coproc.obj_out,
        Rvi_coproc.Fir_ref.filter_bytes ~coeffs ~shift data );
    ]
  | Vecadd_in { a; b } ->
    [ (Rvi_coproc.Vecadd.obj_c, bytes_of_words (Rvi_coproc.Vecadd.reference ~a ~b)) ]

let verify expected read_obj =
  List.for_all (fun (id, want) -> Bytes.equal (read_obj id) want) expected

let sw_cycles = function
  | Adpcm_in data ->
    2 * Bytes.length data * Rvi_coproc.Adpcm_coproc.sw_cycles_per_sample
  | Idea_in { data; _ } ->
    Bytes.length data / 8 * Idea_coproc.sw_cycles_per_block
  | Fir_in { coeffs; data; _ } ->
    fir_outputs ~coeffs data
    * ((Array.length coeffs * Rvi_coproc.Fir_ref.sw_cycles_per_tap)
      + Rvi_coproc.Fir_ref.sw_cycles_per_output)
  | Vecadd_in { a; _ } -> Array.length a * Rvi_coproc.Vecadd.sw_cycles_per_element

let alloc kernel objects =
  List.map
    (fun o ->
      let buf = Uspace.alloc kernel o.size in
      (match o.init with
      | Some data -> Uspace.write kernel buf data
      | None -> ());
      (o, buf))
    objects
