type t = int

let zero = 0

let of_ps n =
  if n < 0 then invalid_arg "Simtime.of_ps: negative";
  n

let of_ns n = of_ps (n * 1_000)
let of_us n = of_ps (n * 1_000_000)
let of_ms n = of_ps (n * 1_000_000_000)
let to_ps t = t
let to_ns t = float_of_int t /. 1e3
let to_us t = float_of_int t /. 1e6
let to_ms t = float_of_int t /. 1e9
let to_s t = float_of_int t /. 1e12

let add a b =
  let s = a + b in
  if s < 0 then invalid_arg "Simtime.add: overflow";
  s

let sub a b =
  if a < b then invalid_arg "Simtime.sub: negative result";
  a - b

let mul t k =
  if k < 0 then invalid_arg "Simtime.mul: negative factor";
  let p = t * k in
  if k <> 0 && p / k <> t then invalid_arg "Simtime.mul: overflow";
  p

let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
(* int-typed: Stdlib.min/max are polymorphic and compare through a C call *)
let min (a : t) (b : t) = if a <= b then a else b
let max (a : t) (b : t) = if a >= b then a else b

let picos_per_second = 1_000_000_000_000

let period_of_hz f =
  if f <= 0 then invalid_arg "Simtime.period_of_hz: non-positive frequency";
  if f > picos_per_second then
    invalid_arg "Simtime.period_of_hz: frequency above 1 THz";
  picos_per_second / f

let of_cycles ~hz n = mul (period_of_hz hz) n
let cycles_of ~hz t = t / period_of_hz hz

let pp ppf t =
  if t = 0 then Format.fprintf ppf "0s"
  else if t < 1_000 then Format.fprintf ppf "%dps" t
  else if t < 1_000_000 then Format.fprintf ppf "%.3fns" (to_ns t)
  else if t < 1_000_000_000 then Format.fprintf ppf "%.3fus" (to_us t)
  else if t < picos_per_second then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_s t)
