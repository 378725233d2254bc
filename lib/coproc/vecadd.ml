module Cp_port = Rvi_core.Cp_port

let obj_a = 0
let obj_b = 1
let obj_c = 2

let reference ~a ~b =
  if Array.length a <> Array.length b then
    invalid_arg "Vecadd.reference: length mismatch";
  Array.init (Array.length a) (fun i -> (a.(i) + b.(i)) land 0xFFFF_FFFF)

(* Load, load, add, store per element on a simple in-order core. *)
let sw_cycles_per_element = 12

(* Immediate states; the element in flight is [index]. *)
type state =
  | Wait_start
  | Read_param
  | Wait_param
  | Wait_a
  | Wait_b
  | Write_c
  | Wait_c
  | Done

module Fsm = Rvi_hw.Fsm.Make (struct
  type t = state

  let show = function
    | Wait_start -> "wait_start"
    | Read_param -> "rd_param"
    | Wait_param -> "wait_param"
    | Wait_a -> "wait_a"
    | Wait_b -> "wait_b"
    | Write_c -> "wr_c"
    | Wait_c -> "wait_c"
    | Done -> "done"
end)

type m = {
  port : Port.t;
  fsm : Fsm.t;
  mutable index : int;
  mutable n : int;
  mutable reg_a : int;
  mutable reg_c : int;
  stats : Rvi_sim.Stats.t;
  c_cycles : Rvi_sim.Stats.counter;
  c_elements : Rvi_sim.Stats.counter;
}

let read m ~obj ~index =
  Port.issue m.port ~region:obj ~addr:(4 * index) ~wr:false ~width:Cp_port.W32
    ~data:0

let write m ~obj ~index ~data =
  Port.issue m.port ~region:obj ~addr:(4 * index) ~wr:true ~width:Cp_port.W32
    ~data

(* Fetch element [i] of A. *)
let fetch m i =
  read m ~obj:obj_a ~index:i;
  m.index <- i;
  Fsm.goto m.fsm Wait_a

(* Advance past the current element: either fetch the next one or
   finish. *)
let next_element m =
  if m.index + 1 < m.n then fetch m (m.index + 1)
  else begin
    Port.finish m.port;
    Fsm.goto m.fsm Done
  end

let compute m =
  Port.sample m.port;
  Rvi_sim.Stats.tick m.c_cycles;
  match Fsm.state m.fsm with
  | Wait_start ->
    if Port.start_seen m.port then Fsm.goto m.fsm Read_param
    else Fsm.stay m.fsm
  | Read_param ->
    Port.read_param m.port ~index:0;
    Fsm.goto m.fsm Wait_param
  | Wait_param ->
    if Port.ready m.port then begin
      m.n <- Port.data m.port;
      if m.n = 0 then begin
        Port.finish m.port;
        Fsm.goto m.fsm Done
      end
      else fetch m 0
    end
    else Fsm.stay m.fsm
  | Wait_a ->
    if Port.ready m.port then begin
      m.reg_a <- Port.data m.port;
      read m ~obj:obj_b ~index:m.index;
      Fsm.goto m.fsm Wait_b
    end
    else Fsm.stay m.fsm
  | Wait_b ->
    if Port.ready m.port then begin
      m.reg_c <- (m.reg_a + Port.data m.port) land 0xFFFF_FFFF;
      Fsm.goto m.fsm Write_c
    end
    else Fsm.stay m.fsm
  | Write_c ->
    write m ~obj:obj_c ~index:m.index ~data:m.reg_c;
    Rvi_sim.Stats.tick m.c_elements;
    Fsm.goto m.fsm Wait_c
  | Wait_c -> if Port.ready m.port then next_element m else Fsm.stay m.fsm
  | Done ->
    if Port.start_seen m.port then Fsm.goto m.fsm Read_param
    else Fsm.stay m.fsm

(* Every wait state polls the port; with the port quiescent those polls
   are pure no-op ticks until some other component supplies the response
   or start pulse, so they can be fast-forwarded without bound. The
   active states (issuing, adding) always do real work. *)
let idle_hint m =
  if not (Port.quiescent m.port) then 0
  else
    match Fsm.state m.fsm with
    | Wait_start | Wait_param | Wait_a | Wait_b | Wait_c | Done -> max_int
    | Read_param | Write_c -> 0

let skip m k = Rvi_sim.Stats.tick_by m.c_cycles k

let create port =
  let stats = Rvi_sim.Stats.create () in
  let m =
    {
      port;
      fsm = Fsm.create ~name:"vecadd" ~init:Wait_start;
      index = 0;
      n = 0;
      reg_a = 0;
      reg_c = 0;
      stats;
      c_cycles = Rvi_sim.Stats.counter stats "cycles";
      c_elements = Rvi_sim.Stats.counter stats "elements";
    }
  in
  {
    Coproc.name = "vecadd";
    component =
      Rvi_sim.Clock.component ~name:"vecadd"
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
        m.n <- 0;
        Port.reset m.port);
    stats = m.stats;
  }
