module Cp_port = Rvi_core.Cp_port

exception Out_of_region of { region : int; addr : int }

(* A request moves from [pend_*] (issued this cycle) to [fl_*] (in the
   RAM, completes at the next sample). Both are flat mutable fields
   guarded by a valid bit rather than [request option]s, so an access
   costs stores instead of a fresh heap block per issue. *)
type t = {
  dpram : Rvi_mem.Dpram.t;
  regions : (int, int * int) Hashtbl.t; (* region -> base, size *)
  mutable params : int array;
  (* issued this cycle; meaningful iff [pend_valid] *)
  mutable pend_valid : bool;
  mutable pend_region : int;
  mutable pend_addr : int;
  mutable pend_wr : bool;
  mutable pend_width : Cp_port.width;
  mutable pend_data : int;
  (* in the RAM, completes next sample; meaningful iff [fl_valid] *)
  mutable fl_valid : bool;
  mutable fl_region : int;
  mutable fl_addr : int;
  mutable fl_wr : bool;
  mutable fl_width : Cp_port.width;
  mutable fl_data : int;
  mutable ready_now : bool;
  mutable data_now : int;
  mutable start_req : bool;
  mutable start_now : bool;
  mutable fin : bool;
  mutable accesses : int;
}

let create ~dpram =
  {
    dpram;
    regions = Hashtbl.create 8;
    params = [||];
    pend_valid = false;
    pend_region = 0;
    pend_addr = 0;
    pend_wr = false;
    pend_width = Cp_port.W32;
    pend_data = 0;
    fl_valid = false;
    fl_region = 0;
    fl_addr = 0;
    fl_wr = false;
    fl_width = Cp_port.W32;
    fl_data = 0;
    ready_now = false;
    data_now = 0;
    start_req = false;
    start_now = false;
    fin = false;
    accesses = 0;
  }

let set_region t ~region ~base ~size =
  if base < 0 || size < 0 || base + size > Rvi_mem.Dpram.size t.dpram then
    invalid_arg "Dport.set_region: window outside the dual-port RAM";
  Hashtbl.replace t.regions region (base, size)

let set_params t params = t.params <- Array.of_list params
let assert_start t = t.start_req <- true
let finished t = t.fin

(* Completes the in-flight request. *)
let perform t =
  let region = t.fl_region and addr = t.fl_addr in
  if region = Cp_port.param_obj then begin
    let index = addr / 4 in
    if t.fl_wr || index < 0 || index >= Array.length t.params then
      raise (Out_of_region { region; addr });
    t.data_now <- t.params.(index)
  end
  else begin
    (* [find] returns the stored window; [find_opt] would box it *)
    match Hashtbl.find t.regions region with
    | exception Not_found -> raise (Out_of_region { region; addr })
    | base, size ->
      let bytes = Cp_port.width_bytes t.fl_width in
      if addr < 0 || addr + bytes > size then
        raise (Out_of_region { region; addr });
      let width = Cp_port.width_bits t.fl_width in
      if t.fl_wr then Rvi_mem.Dpram.write t.dpram ~width (base + addr) t.fl_data
      else t.data_now <- Rvi_mem.Dpram.read t.dpram ~width (base + addr)
  end

let sample t =
  t.start_now <- t.start_req;
  if t.start_now then begin
    t.start_req <- false;
    t.fin <- false
  end;
  t.ready_now <- false;
  if t.fl_valid then begin
    perform t;
    t.fl_valid <- false;
    t.ready_now <- true
  end

let start_seen t = t.start_now
let busy t = t.pend_valid || t.fl_valid
let ready t = t.ready_now
let data t = t.data_now

(* Unlike the virtual port, a direct port completes requests on the owning
   coprocessor's own ticks, so any queued or in-flight request (or a pulse
   still high) makes the next tick do real work. *)
let quiescent t =
  (not t.start_req) && (not t.start_now) && (not t.pend_valid)
  && (not t.fl_valid) && not t.ready_now

let issue t ~region ~addr ~wr ~width ~data =
  assert (not (busy t));
  t.pend_region <- region;
  t.pend_addr <- addr;
  t.pend_wr <- wr;
  t.pend_width <- width;
  t.pend_data <- data;
  t.pend_valid <- true;
  t.accesses <- t.accesses + 1

let finish t = t.fin <- true

let commit t =
  if t.pend_valid then begin
    t.fl_region <- t.pend_region;
    t.fl_addr <- t.pend_addr;
    t.fl_wr <- t.pend_wr;
    t.fl_width <- t.pend_width;
    t.fl_data <- t.pend_data;
    t.fl_valid <- true;
    t.pend_valid <- false
  end

let reset t =
  t.pend_valid <- false;
  t.fl_valid <- false;
  t.ready_now <- false;
  t.data_now <- 0;
  t.start_req <- false;
  t.start_now <- false;
  t.fin <- false

let accesses t = t.accesses
