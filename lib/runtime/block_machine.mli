(** The block-compiled engine: [Machine]'s state and semantics driven
    through [Compile]'s threaded code.

    The state is a plain [Machine.t]; the driver retires maximal
    straight-line runs of compiled closures in a tight loop whenever the
    scheduler has no choice to make (exactly one eligible thread),
    consulting the scheduler and replay tap/feed only at a window's
    first decision and at schedulable operations — exactly where
    [Machine] makes visible decisions. Everything observable (outcomes,
    outputs, step counts, stats, traces, profiles, race reports, JSONL
    telemetry, schedule logs) is bit-for-bit identical to [Machine] and
    [Ref_machine].

    Hooks and windows: the flight ring and the tap/feed are accounted
    in bulk ({!Flight_ring.push_run}, {!Sched.forced_run}); a race
    probe turns memory accesses into window stoppers that run through
    [Machine]'s generic step. Only the trace sink and the cost profiler
    (and [profile_sites]) send every step down [Machine]'s own generic
    path. The three-way differential suite in [test_fast_exec.ml]
    enforces the identity over the bugbench catalog. *)

open Conair_ir

type t

type config = Machine.config
type meta = Machine.meta

val create :
  ?config:config -> ?meta:meta -> ?hooks:Hooks.bundle -> Program.t -> t
(** Link and block-compile the program; the main thread is ready to
    run. [hooks] attaches the run's observation hooks at construction,
    same as [Machine.create]. *)

val machine : t -> Machine.t
(** The underlying machine state (shared, not a copy). *)

val hooks : t -> Hooks.target
(** The machine's six hook slots, bundled for [Hooks.install]. *)

val outputs : t -> string list
(** In emission order. *)

val stats : t -> Stats.t
val thread : t -> int -> Thread.t
val live_threads : t -> int list
val thread_summaries : t -> (int * string * string list) list
val sched : t -> Sched.t
val outcome : t -> Outcome.t option

val steps : t -> int
(** Virtual time: scheduler steps taken so far (idle ticks included). *)

val step : t -> bool
(** One generic scheduler step ([Machine.step] on the shared state);
    [false] once the program has finished. Single-stepping never uses
    the compiled fast path — it exists for inspection loops where
    per-step control matters more than throughput. *)

val run : t -> Outcome.t
(** Run to completion or until the fuel runs out, using the compiled
    fast path wherever the scheduler's choice is forced and no
    per-step hook (trace, profiler) is installed. *)

(** {1 Execution-path counters}

    Where this machine's steps were retired. Kept out of [Stats] so
    reports stay byte-identical across engines. *)

val window_steps : t -> int
(** Steps retired inside windows: compiled code, plus the stoppers and
    not-yet-compiled instructions a window runs through the generic
    step without leaving the window. *)

val generic_steps : t -> int
(** Steps retired one scheduler decision at a time: the multi-eligible
    generic step, and every step under a per-step hook or {!step}
    (idle ticks included). Bulk idle skips are in neither counter. *)

val run_program : ?config:config -> ?meta:meta -> Program.t -> t * Outcome.t
