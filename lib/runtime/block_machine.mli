(** The block-compiled engine: [Machine]'s state and semantics driven
    through [Compile]'s threaded code.

    The state is a plain [Machine.t]; the driver retires maximal
    straight-line runs of compiled closures in a tight loop whenever the
    scheduler has no choice to make (exactly one eligible thread) and no
    observation hook is installed, consulting the scheduler, probes and
    replay tap/feed only at schedulable operations — exactly where
    [Machine] makes visible decisions. Everything observable (outcomes,
    outputs, step counts, stats, traces, profiles, race reports, JSONL
    telemetry, schedule logs) is bit-for-bit identical to [Machine] and
    [Ref_machine]; with any hook installed every step goes down
    [Machine]'s own generic path — except the flight-recorder ring,
    which windows feed in bulk ([Flight_ring.push_run]) precisely so it
    can stay on always. The three-way differential suite in
    [test_fast_exec.ml] enforces the identity over the bugbench
    catalog. *)

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
    fast path wherever the scheduler's choice is forced and no hook is
    installed. *)

val run_program : ?config:config -> ?meta:meta -> Program.t -> t * Outcome.t
