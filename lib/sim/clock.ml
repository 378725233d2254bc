type component = {
  name : string;
  compute : unit -> unit;
  commit : unit -> unit;
  idle_hint : (unit -> int) option;
  skip : (int -> unit) option;
  commit_hazard : bool;
      (* the commit phase consumes state a *later* slot's compute may have
         written this same edge (e.g. a bus wrapper whose commit moves a
         request its owner posted during compute); an elided tick must
         re-check the hint at its commit turn instead of skipping outright *)
}

let component ?idle_hint ?skip ?(commit_hazard = false) ~name ~compute ~commit
    () =
  (match (idle_hint, skip) with
  | Some _, None | None, Some _ ->
    invalid_arg "Clock.component: idle_hint and skip must be given together"
  | Some _, Some _ | None, None -> ());
  { name; compute; commit; idle_hint; skip; commit_hazard }

(* Two same-rate components registered back to back can share one slot:
   the composite runs [a]'s phase before [b]'s in both halves of the edge,
   which is exactly the global order separate registration would produce.
   Idle windows compose as the min of the hints; a skip is forwarded to
   both. When the composite executes an edge on which one side would have
   been elided, that side's [compute]/[commit] run instead of its [skip 1]
   — the idle-hint contract (a positive hint promises the tick changes
   nothing, counters included) makes the two indistinguishable. Composing
   is a pure host-side optimisation: fewer slots means fewer closure
   dispatches per edge. *)
let compose a b =
  let name = a.name ^ "+" ^ b.name in
  let compute () =
    a.compute ();
    b.compute ()
  in
  let commit () =
    a.commit ();
    b.commit ()
  in
  let commit_hazard = a.commit_hazard || b.commit_hazard in
  match (a.idle_hint, a.skip, b.idle_hint, b.skip) with
  | Some ha, Some sa, Some hb, Some sb ->
    component ~name ~commit_hazard
      ~idle_hint:(fun () ->
        let x = ha () in
        if x <= 0 then 0
        else
          let y = hb () in
          if x < y then x else y)
      ~skip:(fun k ->
        sa k;
        sb k)
      ~compute ~commit ()
  | _ -> component ~name ~commit_hazard ~compute ~commit ()

type slot = { comp : component; divide : int; phase : int }

type t = {
  engine : Engine.t;
  clk_name : string;
  freq_hz : int;
  period : Simtime.t;
  batched : bool;
  (* flat arrays in registration order: O(1) add, allocation-free edges *)
  mutable slots : slot array; (* first [n_slots] entries are live *)
  mutable n_slots : int;
  mutable marks : int array; (* per-edge scratch: 0 off / 1 ran / 2 elided *)
  mutable observers : (int -> unit) array; (* first [n_observers] live *)
  mutable n_observers : int;
  mutable skippable : bool; (* every slot can report and absorb idle spans *)
  mutable uniform : bool; (* every slot has divide = 1 *)
  mutable cycles : int;
  mutable running : bool;
  mutable generation : int; (* invalidates edges scheduled before a stop *)
}

let create ?(batched = true) engine ~name ~freq_hz =
  {
    engine;
    clk_name = name;
    freq_hz;
    period = Simtime.period_of_hz freq_hz;
    batched;
    slots = [||];
    n_slots = 0;
    marks = [||];
    observers = [||];
    n_observers = 0;
    skippable = true;
    uniform = true;
    cycles = 0;
    running = false;
    generation = 0;
  }

let add ?(divide = 1) ?(phase = 0) t comp =
  if divide < 1 then invalid_arg "Clock.add: divide < 1";
  if phase < 0 || phase >= divide then invalid_arg "Clock.add: bad phase";
  let s = { comp; divide; phase } in
  if t.n_slots = Array.length t.slots then begin
    let grown = Array.make (max 4 (2 * t.n_slots)) s in
    Array.blit t.slots 0 grown 0 t.n_slots;
    t.slots <- grown
  end;
  t.slots.(t.n_slots) <- s;
  if t.n_slots >= Array.length t.marks then
    t.marks <- Array.make (Array.length t.slots) 0;
  t.n_slots <- t.n_slots + 1;
  if divide > 1 then t.uniform <- false;
  if Option.is_none comp.idle_hint || Option.is_none comp.skip then
    t.skippable <- false

let on_edge t f =
  if t.n_observers = Array.length t.observers then begin
    let grown = Array.make (max 4 (2 * t.n_observers)) f in
    Array.blit t.observers 0 grown 0 t.n_observers;
    t.observers <- grown
  end;
  t.observers.(t.n_observers) <- f;
  t.n_observers <- t.n_observers + 1

(* One rising edge, identical to the seed implementation's ordering: the
   enabled set is evaluated against the pre-edge cycle index, every enabled
   compute runs before any commit, and observers see the just-completed
   index after all commits. *)
let run_edge t =
  let cycle = t.cycles in
  let n = t.n_slots in
  let elide = t.batched in
  let executed = ref false in
  (* Per-slot no-op elision. A slot whose [idle_hint] is positive when its
     compute turn comes skips the closure calls for this tick: hints are
     evaluated in slot order inside the compute phase, so a slot sees
     everything earlier computes latched for it this edge — exactly the
     state its compute would read. A positive hint is a promise the tick
     is a no-op, so [skip 1] performs the tick's accounting at the commit
     turn. [commit_hazard] slots re-check the hint there instead, because
     a later slot's compute this edge may have queued work their commit
     must move. *)
  for i = 0 to n - 1 do
    let s = Array.unsafe_get t.slots i in
    if s.divide = 1 || cycle mod s.divide = s.phase then begin
      let run =
        (not elide)
        || (match s.comp.idle_hint with Some f -> f () <= 0 | None -> true)
      in
      if run then begin
        Array.unsafe_set t.marks i 1;
        executed := true;
        s.comp.compute ()
      end
      else Array.unsafe_set t.marks i 2
    end
    else Array.unsafe_set t.marks i 0
  done;
  for i = 0 to n - 1 do
    match Array.unsafe_get t.marks i with
    | 0 -> ()
    | 1 -> (Array.unsafe_get t.slots i).comp.commit ()
    | _ -> (
      let c = (Array.unsafe_get t.slots i).comp in
      let rerun =
        c.commit_hazard
        && match c.idle_hint with Some f -> f () <= 0 | None -> true
      in
      if rerun then c.commit ()
      else match c.skip with Some g -> g 1 | None -> assert false)
  done;
  t.cycles <- cycle + 1;
  for i = 0 to t.n_observers - 1 do
    (Array.unsafe_get t.observers i) cycle
  done;
  not !executed

(* Idle fast-forward. After an edge, ask every slot how many of its own
   upcoming ticks are provably no-ops (given inputs frozen — nothing else
   executes inside the batch window). The clock jumps straight to the
   earliest cycle where some slot does real work, bounded by the engine
   horizon and the next queued event, and tells each slot exactly how many
   ticks it absorbed so cycle/stat accounting stays bit-exact.

   Returns the number of periods from the current engine time to the next
   edge that must actually execute (>= 1), updating [t.cycles] past the
   skipped span. *)
let plan_skip t ~now_ps ~h_ps ~peek_ps =
  (* [peek_ps] is [max_int] when the queue is empty. *)
  let c = t.cycles in
  let period_ps = Simtime.to_ps t.period in
  let target = ref max_int in
  if t.uniform then begin
    (* all slots tick every edge: wake = current cycle + hint *)
    let i = ref 0 in
    while !target > c && !i < t.n_slots do
      let s = Array.unsafe_get t.slots !i in
      let h = match s.comp.idle_hint with Some f -> f () | None -> 0 in
      let wake =
        if h <= 0 then c else if h >= max_int - c then max_int else c + h
      in
      if wake < !target then target := wake;
      incr i
    done
  end
  else begin
    let i = ref 0 in
    while !target > c && !i < t.n_slots do
      let s = Array.unsafe_get t.slots !i in
      (* first enabled cycle >= c for this slot *)
      let next_en =
        let d = c - s.phase in
        if d <= 0 then s.phase
        else
          let r = d mod s.divide in
          if r = 0 then c else c + s.divide - r
      in
      let h = match s.comp.idle_hint with Some f -> f () | None -> 0 in
      let wake =
        if h <= 0 then next_en
        else if h >= (max_int - next_en) / s.divide then max_int
        else next_en + (h * s.divide)
      in
      if wake < !target then target := wake;
      incr i
    done
  end;
  if !target <= c then 1
  else begin
  (* cap by the horizon (edge time <= horizon) and by the next queued
     event (edge time strictly before it, so queued work is not starved) *)
  let tgt = Int.min !target (c - 1 + ((h_ps - now_ps) / period_ps)) in
  let tgt =
    if peek_ps = max_int then tgt
    else Int.min tgt (c - 1 + ((peek_ps - now_ps - 1) / period_ps))
  in
  if tgt <= c then 1
  else begin
    (* cycles [c, tgt) are all no-ops; account them exactly per slot *)
    if t.uniform then
      for j = 0 to t.n_slots - 1 do
        let s = Array.unsafe_get t.slots j in
        match s.comp.skip with
        | Some f -> f (tgt - c)
        | None -> assert false
      done
    else
      for j = 0 to t.n_slots - 1 do
        let s = Array.unsafe_get t.slots j in
        let cnt_upto n =
          if n < s.phase then 0 else ((n - s.phase) / s.divide) + 1
        in
        let k = cnt_upto (tgt - 1) - cnt_upto (c - 1) in
        if k > 0 then
          match s.comp.skip with Some f -> f k | None -> assert false
      done;
    t.cycles <- tgt;
    tgt - c + 1
  end
  end

(* Edge batching. Inside an engine run span (horizon published), edges are
   executed inline — time advanced with [Engine.jump_to] — as long as the
   next edge falls inside the span, strictly before any queued event, and
   no interrupt source requested a break. Each condition failing falls back
   to scheduling one event at the next edge time, which is exactly the seed
   per-edge behaviour, so run loops observe the same event times and the
   same engine [now] at every boundary. *)
let rec batch t gen self =
  let (_ : bool) = run_edge t in
  if t.running && gen = t.generation then begin
    let e = t.engine in
    let broke = Engine.take_break e in
    match (if t.batched then Engine.horizon e else None) with
    | None -> Engine.schedule_after e t.period self
    | Some h ->
      let now_ps = Simtime.to_ps (Engine.now e) in
      let h_ps = Simtime.to_ps h in
      (* read after [run_edge]: an executed compute may have scheduled *)
      let peek_ps = Engine.peek_ps e in
      let steps =
        (* Plan even when the edge just run executed slots: hints are
           evaluated after every commit, so a post-active window (a
           component parking itself in a multi-cycle wait) is skipped
           without first paying a fully-elided edge. During dense
           stretches some slot's hint is 0 and [plan_skip] bails out on
           it immediately, so the extra cost is one hint evaluation per
           idle slot per active edge. *)
        if
          broke || (not t.skippable) || t.n_observers > 0 || t.n_slots = 0
          || h_ps <= now_ps
        then 1
        else plan_skip t ~now_ps ~h_ps ~peek_ps
      in
      let te_ps = now_ps + (steps * Simtime.to_ps t.period) in
      if (not broke) && te_ps <= h_ps && te_ps < peek_ps then begin
        Engine.jump_to e (Simtime.of_ps te_ps);
        batch t gen self
      end
      else Engine.schedule_at e (Simtime.of_ps te_ps) self
  end

(* Specialised inline loop for the dominant configuration — one uniform,
   skippable slot (see [compose]) and no observers. Behaviourally
   identical to [batch]: same edge order, same skip accounting, same
   horizon/queue scheduling boundaries. The differences are host-side
   only: the slot's hint is evaluated once per edge (not once in
   [run_edge] and again in [plan_skip]), there is no marks array, and an
   idle window is absorbed by [skip] directly instead of first paying a
   fully-elided edge. Executing the edge unconditionally on entry is
   sound even where [run_edge] would have elided it: a positive hint
   promises the tick is a no-op, so running it changes nothing. *)
and single_batch t gen self =
  let e = t.engine in
  match (if t.batched then Engine.horizon e else None) with
  | None ->
    let s = (Array.unsafe_get t.slots 0).comp in
    s.compute ();
    s.commit ();
    t.cycles <- t.cycles + 1;
    if t.running && gen = t.generation then
      Engine.schedule_after e t.period self
  | Some h ->
    (* The horizon is fixed for the whole inline chain (only a run loop
       moves it, and no engine event dispatches between inline edges), so
       everything per-chain — horizon, period, the slot's closures, the
       engine clock reading — is hoisted out of the per-edge loop; the
       current time is carried forward from each jump instead of re-read.
       Only the break flag and the queue head can change under an edge
       (computes may raise interrupts or schedule events) and those are
       the two re-checked each iteration. *)
    let h_ps = Simtime.to_ps h in
    let period_ps = Simtime.to_ps t.period in
    let s = (Array.unsafe_get t.slots 0).comp in
    let hint_fn = match s.idle_hint with Some f -> f | None -> assert false in
    let skip_fn = match s.skip with Some f -> f | None -> assert false in
    let now_ps = ref (Simtime.to_ps (Engine.now e)) in
    let continue = ref true in
    while !continue do
      s.compute ();
      s.commit ();
      t.cycles <- t.cycles + 1;
      if t.running && gen = t.generation then begin
        let broke = Engine.take_break e in
        let peek_ps = Engine.peek_ps e in
        let steps =
          if broke || h_ps <= !now_ps then 1
          else begin
            let hint = hint_fn () in
            if hint <= 0 then 1
            else begin
              let c = t.cycles in
              let wake = if hint >= max_int - c then max_int else c + hint in
              let tgt = Int.min wake (c - 1 + ((h_ps - !now_ps) / period_ps)) in
              let tgt =
                if peek_ps = max_int then tgt
                else Int.min tgt (c - 1 + ((peek_ps - !now_ps - 1) / period_ps))
              in
              if tgt <= c then 1
              else begin
                skip_fn (tgt - c);
                t.cycles <- tgt;
                tgt - c + 1
              end
            end
          end
        in
        let te_ps = !now_ps + (steps * period_ps) in
        if (not broke) && te_ps <= h_ps && te_ps < peek_ps then begin
          (* [te_ps] was just bounded by the queue head and exceeds the
             carried now, so the checked jump would re-prove both. *)
          Engine.jump_unchecked e (Simtime.of_ps te_ps);
          now_ps := te_ps;
          if
            not
              (t.n_slots = 1 && t.uniform && t.skippable
             && t.n_observers = 0)
          then begin
            continue := false;
            batch t gen self
          end
        end
        else begin
          continue := false;
          Engine.schedule_at e (Simtime.of_ps te_ps) self
        end
      end
      else continue := false
    done

(* Stop/start semantics (asserted by a regression test): [stop] discards
   edge phase, and after [start] the next edge fires exactly one period
   after the [start] call — a restarted domain behaves like a freshly
   released reset, it does not resume the old edge grid. VIM
   reconfiguration relies on this: the coprocessor clock is stopped while
   the PLD is reprogrammed and the new configuration starts a fresh
   timing grid. *)
let start t =
  if not t.running then begin
    t.running <- true;
    t.generation <- t.generation + 1;
    let gen = t.generation in
    let rec self () =
      if t.running && gen = t.generation then
        if
          t.batched && t.n_slots = 1 && t.uniform && t.skippable
          && t.n_observers = 0
        then single_batch t gen self
        else batch t gen self
    in
    Engine.schedule_after t.engine t.period self
  end

let stop t =
  if t.running then begin
    t.running <- false;
    t.generation <- t.generation + 1
  end

(* Platform pooling: stop the domain and rewind the cycle counter so the
   next [start] behaves exactly like the first edge of a fresh clock —
   same cycle indices, same divided-slot phases. Registered components and
   observers are kept (the pooled platform re-wires state, not
   structure). *)
let reset t =
  t.running <- false;
  t.generation <- t.generation + 1;
  t.cycles <- 0

let running t = t.running
let cycles t = t.cycles
let freq_hz t = t.freq_hz
let period t = t.period
let name t = t.clk_name
