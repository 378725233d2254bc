module type STATE = sig
  type t [@@immediate]

  val show : t -> string
end

module Make (S : STATE) = struct
  (* [S.t] is immediate, so the two state registers below are written with
     plain stores: no [caml_modify] write barrier, no allocation. A
     polymorphic ['a Reg.t] would pay the barrier on every [goto]/[commit]
     whatever the state type, because the compiler cannot know that ['a]
     holds no pointer. *)
  type t = {
    fsm_name : string;
    mutable cur : S.t;
    mutable next : S.t;
    mutable transitions : int;
  }

  let create ~name ~init = { fsm_name = name; cur = init; next = init; transitions = 0 }
  let[@inline] state t = t.cur
  let[@inline] goto t s = t.next <- s
  let[@inline] stay t = t.next <- t.cur

  (* Physical comparison is exact on immediates, and unlike [<>] on an
     abstract type it is not a polymorphic-compare C call. *)
  let[@inline] commit t =
    if t.next != t.cur then begin
      t.cur <- t.next;
      t.transitions <- t.transitions + 1
    end

  let reset t s =
    t.cur <- s;
    t.next <- s

  let name t = t.fsm_name
  let show t = S.show t.cur
  let transitions t = t.transitions
end
