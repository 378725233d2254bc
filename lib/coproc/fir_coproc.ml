module Cp_port = Rvi_core.Cp_port

let obj_in = 0
let obj_coeff = 1
let obj_out = 2
let mac_cycles_per_tap = 1

let params ~n_out ~taps ~shift = [ n_out; taps; shift ]

let sat16 v = if v < -32768 then -32768 else if v > 32767 then 32767 else v
let to_s16 u = if u land 0x8000 <> 0 then (u land 0xFFFF) - 0x10000 else u land 0xFFFF

(* Immediate states. The parameter, coefficient or window index being
   loaded (or the output index being computed) is [index]; the serial
   MAC's position and partial sum are [tap] and [acc]. *)
type state =
  | Wait_start
  | Read_param
  | Wait_param
  | Load_coeff
  | Wait_coeff
  | Fill_window (* [index] samples read so far *)
  | Wait_fill
  | Fetch (* output [index]: read x[index + taps - 1] *)
  | Wait_sample
  | Mac
  | Wait_write
  | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state

  let show = function
    | Wait_start -> "wait_start"
    | Read_param -> "rd_param"
    | Wait_param -> "wait_param"
    | Load_coeff -> "ld_coeff"
    | Wait_coeff -> "wait_coeff"
    | Fill_window -> "fill"
    | Wait_fill -> "wait_fill"
    | Fetch -> "fetch"
    | Wait_sample -> "wait_x"
    | Mac -> "mac"
    | Wait_write -> "wait_wr"
    | Done -> "done"
end)

type m = {
  port : Port.t;
  fsm : Fsm.t;
  mutable index : int;
  mutable tap : int;
  mutable acc : int;
  mutable n_out : int;
  mutable taps : int;
  mutable shift : int;
  coeffs : int array; (* register file *)
  window : int array; (* sliding sample window *)
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_outputs : Rvi_sim.Stats.counter;
}

let read16 m ~obj ~index =
  Port.issue m.port ~region:obj ~addr:(2 * index) ~wr:false ~width:Cp_port.W16
    ~data:0

let goto m s i =
  m.index <- i;
  Fsm.goto m.fsm s

(* Wait states are unbounded no-ops behind a quiescent port. A [Mac] in
   progress exposes its remaining single-tap cycles: the serial MAC's
   inputs (coefficient file and sample window) are frozen while it runs,
   so [skip] can accumulate the absorbed taps wholesale — same partial
   sums, same cycle count, one executed edge per output instead of one
   per tap. The final tap must execute (it posts the result write). *)
let idle_hint m =
  if not (Port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Wait_coeff | Wait_fill | Wait_sample
    | Wait_write | Done ->
      max_int
    | Read_param | Load_coeff | Fill_window | Fetch -> 0
    | Mac -> m.taps - 1 - m.tap

let skip m k =
  Rvi_sim.Stats.tick_by m.c_cycles k;
  match Fsm.state m.fsm with
  | Mac ->
    let acc = ref m.acc in
    for j = m.tap to m.tap + k - 1 do
      acc := !acc + (m.coeffs.(j) * m.window.(j))
    done;
    m.acc <- !acc;
    m.tap <- m.tap + k
  | _ -> ()

let compute m =
  Port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  let i = m.index in
  match Fsm.state m.fsm with
  | Wait_start ->
    if Port.start_seen m.port then goto m Read_param 0 else Fsm.stay m.fsm
  | Read_param ->
    Port.read_param m.port ~index:i;
    Fsm.goto m.fsm Wait_param
  | Wait_param ->
    if Port.ready m.port then begin
      (match i with
      | 0 -> m.n_out <- Port.data m.port
      | 1 -> m.taps <- Port.data m.port
      | _ -> m.shift <- Port.data m.port);
      if i < 2 then goto m Read_param (i + 1)
      else if m.n_out = 0 || m.taps = 0 || m.taps > Fir_ref.max_taps then begin
        Port.finish m.port;
        Fsm.goto m.fsm Done
      end
      else goto m Load_coeff 0
    end
    else Fsm.stay m.fsm
  | Load_coeff ->
    read16 m ~obj:obj_coeff ~index:i;
    Fsm.goto m.fsm Wait_coeff
  | Wait_coeff ->
    if Port.ready m.port then begin
      m.coeffs.(i) <- to_s16 (Port.data m.port);
      if i + 1 < m.taps then goto m Load_coeff (i + 1)
      else goto m Fill_window 0
    end
    else Fsm.stay m.fsm
  | Fill_window ->
    if i = m.taps - 1 then goto m Fetch 0
    else begin
      read16 m ~obj:obj_in ~index:i;
      Fsm.goto m.fsm Wait_fill
    end
  | Wait_fill ->
    if Port.ready m.port then begin
      m.window.(i) <- to_s16 (Port.data m.port);
      goto m Fill_window (i + 1)
    end
    else Fsm.stay m.fsm
  | Fetch ->
    read16 m ~obj:obj_in ~index:(i + m.taps - 1);
    Fsm.goto m.fsm Wait_sample
  | Wait_sample ->
    if Port.ready m.port then begin
      m.window.(m.taps - 1) <- to_s16 (Port.data m.port);
      m.tap <- 0;
      m.acc <- 0;
      Fsm.goto m.fsm Mac
    end
    else Fsm.stay m.fsm
  | Mac ->
    (* One multiply-accumulate per cycle through the serial MAC. *)
    let tap = m.tap in
    let acc = m.acc + (m.coeffs.(tap) * m.window.(tap)) in
    if tap + 1 < m.taps then begin
      m.tap <- tap + 1;
      m.acc <- acc
    end
    else begin
      let y = sat16 (acc asr m.shift) land 0xFFFF in
      Port.issue m.port ~region:obj_out ~addr:(2 * i) ~wr:true
        ~width:Cp_port.W16 ~data:y;
      Rvi_sim.Stats.tick m.c_outputs;
      Fsm.goto m.fsm Wait_write
    end
  | Wait_write ->
    if Port.ready m.port then
      if i + 1 < m.n_out then begin
        (* Slide the window by one sample. *)
        Array.blit m.window 1 m.window 0 (m.taps - 1);
        goto m Fetch (i + 1)
      end
      else begin
        Port.finish m.port;
        Fsm.goto m.fsm Done
      end
    else Fsm.stay m.fsm
  | Done ->
    if Port.start_seen m.port then goto m Read_param 0 else Fsm.stay m.fsm

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create ~name:"fir" ~init:Wait_start;
      index = 0;
      tap = 0;
      acc = 0;
      n_out = 0;
      taps = 0;
      shift = 0;
      coeffs = Array.make Fir_ref.max_taps 0;
      window = Array.make Fir_ref.max_taps 0;
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_outputs = Rvi_sim.Stats.counter stats "outputs";
    }
  in
  {
    Coproc.name = "fir";
    component =
      Rvi_sim.Clock.component ~name:"fir"
        ~idle_hint:(fun () -> idle_hint m)
        ~skip:(fun k -> skip m k)
        ~compute:(fun () -> compute m)
        ~commit:(fun () ->
          Fsm.commit m.fsm;
          Port.commit m.port)
          ();
    finished = (fun () -> Fsm.state m.fsm = Done);
    reset =
      (fun () ->
        Fsm.reset m.fsm Wait_start;
        Port.reset m.port);
    stats = m.stats;
  }
