(* The benchmark's own arithmetic, kept free of simulator types so the
   tests can pin it down exactly. *)

(* {1 Exact percentiles} *)

type pct = {
  p_bp : int;  (** percentile in basis points: 9900 = p99 *)
  value : float;
  n : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples strictly above its rank *)
}

(* Nearest-rank percentile in integer arithmetic, so p99 of 1000
   samples is rank 990 exactly, never 989 or 991 through float
   rounding. *)
let rank ~n p_bp = max 1 (((p_bp * n) + 9_999) / 10_000)

let percentile sorted p_bp =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Metrics.percentile: no samples";
  let r = rank ~n p_bp in
  { p_bp; value = sorted.(r - 1); n; beyond = n - r }

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* A tail percentile is only worth reporting when enough samples lie
   beyond it to tell an outlier from the tail. *)
let min_beyond = 10

let reportable pct = pct.beyond >= min_beyond

let tail_candidates = [ 9990; 9950; 9900; 9500; 9000; 7500; 5000 ]

let highest_reportable sorted =
  let rec go = function
    | [] -> None
    | p :: rest ->
      let q = percentile sorted p in
      if reportable q then Some q else go rest
  in
  if Array.length sorted = 0 then None else go tail_candidates

let pct_label p_bp =
  if p_bp mod 100 = 0 then Printf.sprintf "p%d" (p_bp / 100)
  else Printf.sprintf "p%g" (float_of_int p_bp /. 100.)

let describe ~unit q =
  Printf.sprintf "%s=%.4f %s (n=%d, %d beyond)" (pct_label q.p_bp) q.value unit
    q.n q.beyond

(* {1 Averages and normalisation} *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  match sorted_of_list xs with
  | [||] -> invalid_arg "Metrics.median: no samples"
  | a ->
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per_op total ~ops =
  if ops <= 0 then invalid_arg "Metrics.per_op: no operations";
  total /. float_of_int ops

let pct_of part ~whole =
  if whole <= 0 then invalid_arg "Metrics.pct_of: empty whole";
  100.0 *. float_of_int part /. float_of_int whole

let share_pct part ~whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

(* {1 Failure accounting}

   A failed operation is one the user did not get a verified result for,
   or one after which the interface state was inconsistent. Refused and
   undelivered requests are simply never completed. The service's
   starvation flags are not failures: they are reported elsewhere. *)

let failed_ops ~attempted ~completed ~unverified ~inconsistent =
  if completed > attempted || completed < 0 then
    invalid_arg "Metrics.failed_ops: completed outside [0, attempted]";
  attempted - completed + min completed (unverified + inconsistent)

(* {1 Open-loop ladder} *)

type rung = {
  rate_hz : int;
  sent : int;
  refused : int;
  verified : int;  (** completions with verified output *)
  latencies_ms : float array;  (** sorted, from each request's due time *)
  last_quarter_ms : float array;  (** sorted, the last quarter of arrivals *)
}

(* A rung meets the limit when every request it sent completed verified,
   none was refused, its p99 is within the limit, and so is the tail of
   its last quarter of arrivals — a backlog that grows through the rung
   shows there first. *)
let rung_passes ~limit_ms r =
  r.refused = 0
  && r.verified = r.sent
  && Array.length r.latencies_ms > 0
  && (percentile r.latencies_ms 9900).value <= limit_ms
  &&
  match highest_reportable r.last_quarter_ms with
  | Some q -> q.value <= limit_ms
  | None -> false

(* Rungs are climbed in ascending rate order; the sustainable rate is the
   highest rung below the first one that misses. 0 when even the lowest
   rung misses. *)
let max_rate ~limit_ms rungs =
  let rec go best = function
    | [] -> best
    | r :: rest -> if rung_passes ~limit_ms r then go r.rate_hz rest else best
  in
  go 0 rungs

(* {1 Spans} *)

type span = {
  s_name : string;
  s_parent : int;  (** index of the enclosing span, -1 at top level *)
  s_start : float;
  s_stop : float;
}

(* Self time: a span's duration minus the time its direct children
   cover. Spans come from one thread through a stack, so children nest
   inside their parent and never overlap each other. *)
let self_times (spans : span array) =
  let self = Array.map (fun s -> s.s_stop -. s.s_start) spans in
  Array.iter
    (fun s ->
      if s.s_parent >= 0 then
        self.(s.s_parent) <- self.(s.s_parent) -. (s.s_stop -. s.s_start))
    spans;
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.s_name) in
      Hashtbl.replace by_name s.s_name (prev +. self.(i)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
