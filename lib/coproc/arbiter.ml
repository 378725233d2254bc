module Cp_port = Rvi_core.Cp_port

let slot_words = 16

type request = {
  obj_id : int;
  addr : int;
  wr : bool;
  width : Cp_port.width;
  data : int;
}

type t = {
  upstream : Cp_port.t;
  ports : Cp_port.t array;
  obj_base : int array; (* added to each child's object ids *)
  queued : request option array; (* one outstanding request per child *)
  mutable inflight : int option; (* child whose request is at the IMU *)
  mutable rr : int; (* round-robin cursor *)
  grants : int array;
  (* values computed this cycle, committed at the edge *)
  mutable out_req : request option;
  mutable out_resp : (int * int) option; (* child, data *)
  mutable out_start : bool;
  mutable out_fin : bool;
}

let create ?obj_base ~upstream ~children () =
  if children < 1 || children > 4 then
    invalid_arg "Arbiter.create: children out of [1, 4]";
  let obj_base =
    match obj_base with
    | None -> Array.make children 0
    | Some b when Array.length b = children -> Array.copy b
    | Some _ -> invalid_arg "Arbiter.create: one object base per child"
  in
  {
    upstream;
    ports = Array.init children (fun _ -> Cp_port.create ());
    obj_base;
    queued = Array.make children None;
    inflight = None;
    rr = 0;
    grants = Array.make children 0;
    out_req = None;
    out_resp = None;
    out_start = false;
    out_fin = false;
  }

let child_port t i =
  if i < 0 || i >= Array.length t.ports then
    invalid_arg "Arbiter.child_port: no such child";
  t.ports.(i)

let grants t = Array.copy t.grants

(* Parameter reads are relocated into the child's private slot of the
   parameter page, object accesses by the child's object base. *)
let relocate t ~child r =
  if r.obj_id = Cp_port.param_obj then
    { r with addr = r.addr + (child * 4 * slot_words) }
  else { r with obj_id = r.obj_id + t.obj_base.(child) }

let compute t =
  let n = Array.length t.ports in
  (* Route the upstream response to its issuer. *)
  t.out_resp <- None;
  (if t.upstream.Cp_port.cp_tlbhit then
     match t.inflight with
     | Some child ->
       t.out_resp <- Some (child, t.upstream.Cp_port.cp_din);
       t.inflight <- None
     | None -> ());
  (* Re-broadcast the start pulse. *)
  t.out_start <- t.upstream.Cp_port.cp_start;
  (* Capture child request pulses (at most one outstanding each). *)
  Array.iteri
    (fun i p ->
      if p.Cp_port.cp_access then
        t.queued.(i) <-
          Some
            (relocate t ~child:i
               {
                 obj_id = p.Cp_port.cp_obj;
                 addr = p.Cp_port.cp_addr;
                 wr = p.Cp_port.cp_wr;
                 width = p.Cp_port.cp_width;
                 data = p.Cp_port.cp_dout;
               }))
    t.ports;
  (* Grant round-robin when the upstream is free. *)
  t.out_req <- None;
  (if t.inflight = None then
     let rec pick k =
       if k < n then begin
         let i = (t.rr + k) mod n in
         match t.queued.(i) with
         | Some r ->
           t.queued.(i) <- None;
           t.inflight <- Some i;
           t.rr <- (i + 1) mod n;
           t.grants.(i) <- t.grants.(i) + 1;
           t.out_req <- Some r
         | None -> pick (k + 1)
       end
     in
     pick 0);
  (* Completion: every child holds CP_FIN. *)
  t.out_fin <- Array.for_all (fun p -> p.Cp_port.cp_fin) t.ports

let commit t =
  let u = t.upstream in
  (match t.out_req with
  | Some r ->
    u.Cp_port.cp_obj <- r.obj_id;
    u.Cp_port.cp_addr <- r.addr;
    u.Cp_port.cp_wr <- r.wr;
    u.Cp_port.cp_width <- r.width;
    u.Cp_port.cp_dout <- r.data;
    u.Cp_port.cp_access <- true
  | None -> u.Cp_port.cp_access <- false);
  u.Cp_port.cp_fin <- t.out_fin;
  Array.iteri
    (fun i p ->
      p.Cp_port.cp_start <- t.out_start;
      match t.out_resp with
      | Some (child, data) when child = i ->
        p.Cp_port.cp_tlbhit <- true;
        p.Cp_port.cp_din <- data
      | Some _ | None -> p.Cp_port.cp_tlbhit <- false)
    t.ports

let component t =
  Rvi_sim.Clock.component ~name:"arbiter"
    ~compute:(fun () -> compute t)
    ~commit:(fun () -> commit t)
    ()
