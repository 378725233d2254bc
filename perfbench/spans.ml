(* In-memory span recorder for the traced run: one span around each call
   the benchmark makes into a layer, nested through a stack, written out
   only when the run ends so recording costs no I/O. *)

type t = {
  mutable spans : Metrics.span array;
  mutable ops : int array;
  mutable len : int;
  mutable stack : int list;
  origin : float;
}

let dummy = { Metrics.s_name = ""; s_parent = -1; s_start = 0.0; s_stop = 0.0 }

let create () =
  {
    spans = Array.make 4096 dummy;
    ops = Array.make 4096 0;
    len = 0;
    stack = [];
    origin = Sys.time ();
  }

let grow t =
  let cap = 2 * Array.length t.spans in
  let spans = Array.make cap dummy and ops = Array.make cap 0 in
  Array.blit t.spans 0 spans 0 t.len;
  Array.blit t.ops 0 ops 0 t.len;
  t.spans <- spans;
  t.ops <- ops

let enter t name ~op =
  if t.len = Array.length t.spans then grow t;
  let id = t.len in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.spans.(id) <-
    {
      Metrics.s_name = name;
      s_parent = parent;
      s_start = Sys.time () -. t.origin;
      s_stop = 0.0;
    };
  t.ops.(id) <- op;
  t.len <- id + 1;
  t.stack <- id :: t.stack;
  id

let leave t id =
  (match t.stack with
  | top :: rest when top = id -> t.stack <- rest
  | _ -> invalid_arg "Spans.leave: spans must close innermost first");
  t.spans.(id) <- { (t.spans.(id)) with s_stop = Sys.time () -. t.origin }

(* [None] is the untraced run: the call goes straight through. *)
let wrap tr name ~op f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = enter t name ~op in
    let r = f () in
    leave t id;
    r

let spans t = Array.sub t.spans 0 t.len

let write_jsonl t path =
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
      i s.Metrics.s_name s.s_parent t.ops.(i) s.s_start s.s_stop
  done;
  close_out oc
