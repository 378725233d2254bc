(* A closed variant rather than a functor argument: without flambda the
   compiler does not specialise a functor at its argument, so a
   coprocessor functor's port calls would all be unknown calls. Each
   function below is inlined into the coprocessor, where the virtual
   branch inlines in turn. The direct branch stays a call: the
   normal-coprocessor baseline is not on the campaign's hot path, and
   inlining Dport's Dpram and region-table code at every port call would
   bloat the compute function the virtual side runs. *)
type t = Virtual of Vport.t | Direct of Dport.t

let of_vport v = Virtual v
let of_dport d = Direct d

let[@inline] sample = function
  | Virtual v -> Vport.sample v
  | Direct d -> (Dport.sample [@inlined never]) d

let[@inline] start_seen = function
  | Virtual v -> Vport.start_seen v
  | Direct d -> (Dport.start_seen [@inlined never]) d

let[@inline] issue t ~region ~addr ~wr ~width ~data =
  match t with
  | Virtual v -> Vport.issue v ~region ~addr ~wr ~width ~data
  | Direct d -> (Dport.issue [@inlined never]) d ~region ~addr ~wr ~width ~data

let read_param t ~index =
  issue t ~region:Rvi_core.Cp_port.param_obj ~addr:(4 * index) ~wr:false
    ~width:Rvi_core.Cp_port.W32 ~data:0

let[@inline] busy = function
  | Virtual v -> Vport.busy v
  | Direct d -> (Dport.busy [@inlined never]) d

let[@inline] ready = function
  | Virtual v -> Vport.ready v
  | Direct d -> (Dport.ready [@inlined never]) d

let[@inline] data = function
  | Virtual v -> Vport.data v
  | Direct d -> (Dport.data [@inlined never]) d

let[@inline] finish = function
  | Virtual v -> Vport.finish v
  | Direct d -> (Dport.finish [@inlined never]) d

let[@inline] commit = function
  | Virtual v -> Vport.commit v
  | Direct d -> (Dport.commit [@inlined never]) d

let[@inline] quiescent = function
  | Virtual v -> Vport.quiescent v
  | Direct d -> (Dport.quiescent [@inlined never]) d

let reset = function Virtual v -> Vport.reset v | Direct d -> Dport.reset d
