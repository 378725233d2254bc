type 'a t = {
  fsm_name : string;
  reg : 'a Reg.t;
  show_fn : 'a -> string;
  mutable transitions : int;
}

let create ~name ~init ~show =
  { fsm_name = name; reg = Reg.create init; show_fn = show; transitions = 0 }

let[@inline] state t = Reg.get t.reg
let[@inline] goto t s = Reg.set t.reg s
let[@inline] stay t = Reg.set t.reg (Reg.get t.reg)

let commit t =
  let before = Reg.get t.reg in
  Reg.commit t.reg;
  let after = Reg.get t.reg in
  (* Physical inequality only: [stay] keeps the very same value, a [goto]
     installs a new one. A structural [<>] would be a polymorphic-compare
     C call on every state change, for a count nothing in the model
     reads. *)
  if after != before then t.transitions <- t.transitions + 1

(* Idle fast-forward support: land the machine directly in the state it
   would have reached after [transitions] skipped commits, counting those
   commits' activity. Both register views are set — the skipped window ends
   outside any compute/commit pair. *)
let fast_forward t ~transitions s =
  if transitions < 0 then invalid_arg "Fsm.fast_forward: negative transitions";
  Reg.reset t.reg s;
  t.transitions <- t.transitions + transitions

let reset t s = Reg.reset t.reg s
let name t = t.fsm_name
let show t = t.show_fn (Reg.get t.reg)
let transitions t = t.transitions
