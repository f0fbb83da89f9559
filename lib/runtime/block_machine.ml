(* The block-compiled engine: [Machine]'s state and semantics, driven
   through [Compile]'s threaded code.

   The machine state IS a [Machine.t] — same linked program, same
   threads, heap, locks, scheduler and statistics — plus the compiled
   code. What changes is the driver: where [Machine.run] pays an
   eligibility scan, a scheduling decision and a full opcode dispatch
   per instruction, this driver recognizes the (overwhelmingly common)
   configuration in which the scheduler has no choice to make — exactly
   one eligible thread — and retires the thread's current straight-line
   run of compiled closures in a tight loop, consulting nobody.

   Correctness of the window rests on three facts, each enforced
   elsewhere:

   - [Sched.choose_idx] with one eligible thread and no tap or feed
     returns immediately: no rng draw, no cursor movement ([sched.ml]).
     Skipping the call entirely is therefore unobservable. With a tap or
     feed installed, the window's first decision goes through
     [choose_idx] as usual — with the machine in that decision's state —
     and the rest, all forced and none a switch, are accounted in bulk
     afterwards ([Sched.forced_run]); a feed bounds the window up front
     ([Sched.forced_allow]) so it never retires a decision the feed
     would refuse.
   - A straight-line (non-schedulable) instruction of the running thread
     cannot change any *other* thread's eligibility: it touches only
     registers, stack slots, heap cells and globals, never locks,
     events, thread statuses or the thread table. The only time-based
     wakes are bounded below by the horizon computed at window entry
     (the other threads' earliest wake-up or timeout), and the window
     never runs past it.
   - The compiled code emits nothing a probe could see. The flight ring
     and the tap/feed are accounted in bulk (above); under a race probe
     the memory accesses are compiled as stoppers ([Compile.compile
     ~probe]) that run through [Machine.run_thread_step], emitting
     exactly what the per-step engines emit. The trace sink and the cost
     profiler observe every step, so with either installed every step
     goes down [Machine.step].

   Whenever the window does not apply — several threads are eligible,
   the one eligible thread sits at a blocking op — the driver takes one
   generic step over the eligibility scan it already made, dispatching
   the instruction through the compiled code. [Ref_machine] remains the
   oracle; the three-way differential suite enforces bit-for-bit
   identity. *)

open Conair_ir

type t = {
  m : Machine.t;
  mutable code : Compile.program;
  mutable probed : bool;  (** [code] was compiled for a race probe *)
  mutable ready_n : int;
      (** eligible threads found by the last scan; their indices into
          [m.live] are [m.ready.(0 .. ready_n - 1)] *)
  mutable ready_until : int;
      (** the scan stays exact while [m.step] is below this, until a
          step that can change eligibility ([generic_step] resets it) *)
  mutable window_steps : int;
  mutable generic_steps : int;
}

type config = Machine.config
type meta = Machine.meta

let create ?config ?meta ?hooks prog =
  let m = Machine.create ?config ?meta ?hooks prog in
  let probed = m.Machine.race <> None in
  {
    m;
    code = Compile.compile ~probe:probed m.Machine.linked;
    probed;
    ready_n = 0;
    ready_until = min_int;
    window_steps = 0;
    generic_steps = 0;
  }

let machine bm = bm.m
let outputs bm = Machine.outputs bm.m
let stats bm = Machine.stats bm.m
let steps bm = bm.m.Machine.step
let outcome bm = bm.m.Machine.outcome
let sched bm = bm.m.Machine.sched
let thread bm = Machine.thread bm.m
let live_threads bm = Machine.live_threads bm.m
let hooks bm = Machine.hooks bm.m
let thread_summaries bm = Machine.thread_summaries bm.m
let window_steps bm = bm.window_steps
let generic_steps bm = bm.generic_steps

let step bm =
  bm.ready_until <- min_int;
  let s0 = bm.m.Machine.step in
  let more = Machine.step bm.m in
  bm.generic_steps <- bm.generic_steps + (bm.m.Machine.step - s0);
  more

(* The hooks that observe every step — the trace sink and the cost
   profiler, and per-instruction site profiling — send every step down
   the generic path; no window can account for them in bulk. *)
let per_step (m : Machine.t) =
  m.Machine.trace <> None || m.Machine.prof <> None
  || m.Machine.config.Machine.profile_sites

(* Retire compiled code of [th] until the window closes: a schedulable
   op, a thread death, a decided outcome, a fault, or the step budget
   [bound]. The caller guarantees [m.step < bound] and that [th] is the
   only eligible thread. Returns the steps retired (at least one).

   The normal case dispatches a chain: [cb_chain.(idx)] retires every
   instruction from [idx] onward — chaining through jumps, branches,
   calls and returns — under one call, bumping [m.step] per link as it
   goes. [cb_need.(idx)] bounds the steps the chain can consume before
   its next budget gate, and every control transfer re-checks
   [m.wbound], so the window never runs past its horizon; when the
   budget left is smaller than the next run, the single-step closures
   ([cb_one]) retire the tail one instruction at a time (their
   transfers gate on the same budget). The loop re-fetches the frame
   and block from the thread on every driver round trip — chains move
   the program point arbitrarily far. *)
let run_window bm (th : Thread.t) bound =
  let m = bm.m in
  let code = bm.code in
  m.Machine.wbound <- bound;
  let step0 = m.Machine.step in
  let generic = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let f = Thread.top th in
    let cbv =
      code.(f.Thread.func.Link.lf_id).(f.Thread.block.Link.lb_index)
    in
    let i = f.Thread.idx in
    match
      if m.Machine.step + cbv.Compile.cb_need.(i) <= bound then
        cbv.Compile.cb_chain.(i) m th f
      else cbv.Compile.cb_one.(i) m th f
    with
    | 0 (* t_refresh *) | 4 (* t_single *) ->
        if m.Machine.step >= bound then continue_ := false
    | 1 (* t_end *) -> continue_ := false
    | 2 (* t_sched *) ->
        (* A schedulable op at [fr.idx]: one generic step. The
           scheduler's choice is still forced (the window invariant
           holds until the op runs), so skipping [choose_idx] remains
           unobservable; the op itself may wake, block, spawn or kill
           threads, which ends the window. [run_thread_step] counts
           the instruction; the step counters are ours. *)
        Machine.run_thread_step m th;
        m.Machine.step <- m.Machine.step + 1;
        incr generic;
        continue_ := false
    | 5 (* t_generic *) -> (
        (* A memory access under a race probe (the generic step emits
           its probe event), or an instruction of a block not compiled
           yet. It changes no other thread's eligibility, so the window
           goes on unless it faulted or ended [th]. *)
        Machine.run_thread_step m th;
        m.Machine.step <- m.Machine.step + 1;
        incr generic;
        match th.Thread.status with
        | Thread.Done | Thread.Failed -> continue_ := false
        | _ ->
            if m.Machine.outcome <> None || m.Machine.step >= bound then
              continue_ := false)
    | _ (* t_failed *) -> continue_ := false
    | exception Machine.Fault msg ->
        (* replicates [run_thread_step]'s fault arm. Links raise before
           moving the program point (the one after-pop fault is compiled
           inline), so the faulting frame is on top with [fr.idx] at the
           faulting instruction, whose step is not yet counted. *)
        Machine.close_episode m th;
        let f = Thread.top th in
        let iid =
          let iids =
            code.(f.Thread.func.Link.lf_id).(f.Thread.block.Link.lb_index)
              .Compile.cb_iids
          in
          let idx = f.Thread.idx in
          if idx < Array.length iids then Some iids.(idx) else None
        in
        Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid
          ~tid:th.Thread.tid ~msg;
        m.Machine.step <- m.Machine.step + 1;
        continue_ := false
  done;
  (* [m.step] moved once per retired step (chain links count their own);
     generic steps were counted by [run_thread_step], the rest is
     compiled instructions. *)
  let retired = m.Machine.step - step0 in
  m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + retired;
  m.Machine.stats.Stats.instrs <-
    m.Machine.stats.Stats.instrs + (retired - !generic);
  bm.window_steps <- bm.window_steps + retired;
  (* The flight recorder sees the window as [retired] consecutive
     decisions for [th] — exactly what [Machine.step] would have pushed
     one at a time — accounted in bulk so the recorder never forces the
     window off its fast path. None is preemptive: [th] was the only
     eligible thread for the whole window (see the invariant above). *)
  (match m.Machine.flight with
  | None -> ()
  | Some fl -> Flight_ring.push_run fl th.Thread.tid retired);
  retired

(* Open a window for [th], the one eligible thread. With a tap or feed
   installed the window's first decision is made through [choose_idx]
   (which may raise — a strict feed's divergence — before anything
   ran); the feed bounds how many forced decisions may follow, and
   those that did are accounted to the hooks after the window. *)
let open_window bm (th : Thread.t) bound =
  let m = bm.m in
  let sched = m.Machine.sched in
  let tid = th.Thread.tid in
  let hooked = Sched.hooked sched in
  let bound =
    if not hooked then bound
    else begin
      ignore (Sched.choose_idx sched ~tid_of:(fun _ -> tid) 1 : int);
      let allow = Sched.forced_allow sched ~tid in
      if allow < bound - m.Machine.step - 1 then m.Machine.step + 1 + allow
      else bound
    end
  in
  (* Runnable, or a sleeper whose deadline passed: wake it exactly as
     [run_thread_step] would (the trace is off). *)
  (match th.Thread.status with
  | Thread.Sleeping _ -> th.Thread.status <- Thread.Runnable
  | _ -> ());
  let retired = run_window bm th bound in
  if hooked then Sched.forced_run sched ~tid (retired - 1)

(* Scan eligibility once into [m.ready] / [bm.ready_n] — the set both
   the window attempt and the generic step work from — and note until
   when it stays exact. Eligibility only changes through a schedulable
   op, a thread's death, or time: an eligible thread stays eligible as
   time passes, and an ineligible one can turn eligible by time alone
   only at its wake-up or timeout. *)
let scan bm =
  let m = bm.m in
  let rn = ref 0 and until = ref max_int in
  for i = 0 to m.Machine.live_n - 1 do
    let th = m.Machine.live.(i) in
    if Machine.eligible m th then begin
      m.Machine.ready.(!rn) <- i;
      incr rn
    end
    else
      match th.Thread.status with
      | Thread.Sleeping u -> if u < !until then until := u
      | Thread.Blocked_lock { since; timeout = Some t; _ }
      | Thread.Blocked_event { since; timeout = Some t; _ } ->
          if since + t < !until then until := since + t
      | _ -> ()
  done;
  bm.ready_n <- !rn;
  bm.ready_until <- !until

(* One fast-path attempt over a fresh scan. Returns [true] if it made
   progress (or decided the outcome); [false] sends the caller to
   [generic_step] over the same scan, which then has at least one
   eligible thread. With at most one thread eligible, [ready_until] is
   the earliest virtual time at which any other thread could become
   eligible on its own — a sleeper's wake-up or a timed waiter's
   timeout; waiters without a timeout need another thread's action (an
   unlock, a notify, a death), which a straight-line run performs
   none of. *)
let try_fast bm =
  let m = bm.m in
  scan bm;
  let horizon = min bm.ready_until m.Machine.config.Machine.fuel in
  match bm.ready_n with
  | 0 ->
      (* Nobody is eligible. [Machine.step] would retire idle steps one
         at a time until the nearest time-based wake; take them in
         bulk. *)
      if bm.ready_until = max_int then
        m.Machine.outcome <-
          Some
            (Outcome.Hang
               { step = m.Machine.step; blocked = Machine.live_threads m })
      else begin
        (* an ineligible waiter's wake time is strictly in the future *)
        let skip = horizon - m.Machine.step in
        m.Machine.step <- m.Machine.step + skip;
        m.Machine.stats.Stats.idle <- m.Machine.stats.Stats.idle + skip;
        m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + skip
      end;
      true
  | 1 -> (
      let th = m.Machine.live.(m.Machine.ready.(0)) in
      match th.Thread.status with
      | Thread.Blocked_lock _ | Thread.Blocked_event _ | Thread.Blocked_join _
        ->
          (* stands at its blocking instruction — a schedulable op *)
          false
      | _ ->
          if horizon <= m.Machine.step then false
          else begin
            open_window bm th horizon;
            true
          end)
  | _ -> false

(* [Machine.step] over the current scan (at least one eligible thread),
   with the chosen thread's instruction dispatched through the compiled
   code instead of [exec_instr]'s interpretive match. A compiled
   straight-line instruction that leaves its thread alive changes no
   thread's eligibility (the window invariant), so the scan stays exact
   for the next step; anything else — a stopper, a death, a fault —
   retires it. The scheduler is consulted for the step ([choose_idx] over
   the same candidates, in the same order, hooks included), so
   scheduling decisions, rng draws and all observables are
   byte-identical; only the opcode dispatch is cheaper. Stoppers and
   [L_exit] still run through [Machine.run_thread_step], and
   [m.wbound] is floored so a transfer link never chains past its own
   step. *)
let generic_step bm =
  let m = bm.m in
  let rn = bm.ready_n in
  let k =
    Sched.choose_idx m.Machine.sched
      ~tid_of:(fun j -> m.Machine.live.(m.Machine.ready.(j)).Thread.tid)
      rn
  in
  let th = m.Machine.live.(m.Machine.ready.(k)) in
  (match m.Machine.flight with
  | None -> ()
  | Some fl ->
      (* same classification as [Machine.step]'s push *)
      let tid = th.Thread.tid in
      let p = Flight_ring.prev fl in
      let preemptive =
        tid <> p && p >= 0
        &&
        let found = ref false in
        for j = 0 to rn - 1 do
          if m.Machine.live.(m.Machine.ready.(j)).Thread.tid = p then
            found := true
        done;
        !found
      in
      Flight_ring.push fl tid ~preemptive);
  let fr = Thread.top th in
  let cbv =
    bm.code.(fr.Thread.func.Link.lf_id).(fr.Thread.block.Link.lb_index)
  in
  let i = fr.Thread.idx in
  let generic () =
    bm.ready_until <- min_int;
    Machine.run_thread_step m th;
    m.Machine.step <- m.Machine.step + 1
  in
  if cbv.Compile.cb_sched.(i) then generic ()
  else begin
    (* [run_thread_step]'s preamble for a compiled instruction: wake a
       chosen sleeper (the trace is off), count the instruction. *)
    (match th.Thread.status with
    | Thread.Sleeping _ -> th.Thread.status <- Thread.Runnable
    | _ -> ());
    m.Machine.wbound <- min_int;
    match cbv.Compile.cb_one.(i) m th fr with
    | 0 (* t_refresh *) | 4 (* t_single *) ->
        m.Machine.stats.Stats.instrs <- m.Machine.stats.Stats.instrs + 1
    | 5 (* t_generic: not compiled yet, nothing ran *) -> generic ()
    | _ ->
        m.Machine.stats.Stats.instrs <- m.Machine.stats.Stats.instrs + 1;
        bm.ready_until <- min_int
    | exception Machine.Fault msg ->
        m.Machine.stats.Stats.instrs <- m.Machine.stats.Stats.instrs + 1;
        bm.ready_until <- min_int;
        Machine.close_episode m th;
        let iid =
          let iids = cbv.Compile.cb_iids in
          if i < Array.length iids then Some iids.(i) else None
        in
        Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid
          ~tid:th.Thread.tid ~msg;
        m.Machine.step <- m.Machine.step + 1
  end;
  m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + 1;
  bm.generic_steps <- bm.generic_steps + 1;
  m.Machine.outcome = None

(* A race probe installed after [create] ([Hooks.install]) needs the
   probe-compiled code, and one removed no longer does. *)
let sync_code bm =
  let probe = bm.m.Machine.race <> None in
  if probe <> bm.probed then begin
    bm.code <- Compile.compile ~probe bm.m.Machine.linked;
    bm.probed <- probe
  end

let run bm =
  let m = bm.m in
  (* hooks may have changed, or steps been taken, since the last run *)
  sync_code bm;
  bm.ready_until <- min_int;
  let rec go () =
    if m.Machine.step >= m.Machine.config.Machine.fuel then begin
      m.Machine.outcome <- Some (Outcome.Fuel_exhausted m.Machine.step);
      Outcome.Fuel_exhausted m.Machine.step
    end
    else
      match m.Machine.outcome with
      | Some o -> o
      | None ->
          if m.Machine.live_n = 0 then begin
            m.Machine.outcome <- Some Outcome.Success;
            Outcome.Success
          end
          else if per_step m then
            if step bm then go ()
            else Option.value ~default:Outcome.Success m.Machine.outcome
          else if bm.ready_n > 1 && m.Machine.step < bm.ready_until then
            (* several threads stay eligible: no window, no rescan *)
            if generic_step bm then go ()
            else Option.value ~default:Outcome.Success m.Machine.outcome
          else if try_fast bm then go ()
          else if generic_step bm then go ()
          else Option.value ~default:Outcome.Success m.Machine.outcome
  in
  go ()

let run_program ?config ?meta prog =
  let bm = create ?config ?meta prog in
  let outcome = run bm in
  (bm, outcome)
