(** The reference Mir interpreter: the original map-based implementation,
    kept as a semantic oracle for the pre-resolved engine in [Machine].

    It interprets the source [Program.t] directly (persistent register
    maps, label lookups, a thread-table fold per step) and must agree
    bit-for-bit with [Machine] — same outcomes, outputs, step counts,
    traces and statistics on every program and every scheduling policy.
    The differential test enforces this across the bugbench catalog; the
    bench's interp mode measures the speedup of [Machine] over it.

    Deliberately slow — do not optimize. *)

open Conair_ir

type config = Machine.config
type meta = Machine.meta
type t

val create :
  ?config:config -> ?meta:meta -> ?hooks:Hooks.bundle -> Program.t -> t
(** [hooks] attaches the run's observation hooks at construction, same
    as [Machine.create]. Probes see the same step/rollback/idle sequence
    and the same access/synchronization event stream, with the same
    names, as the fast engine's — traces, profiles and race reports are
    part of the bit-for-bit differential guarantee. *)

val outputs : t -> string list
(** In emission order. *)

val sched : t -> Sched.t
(** The machine's scheduler — the attach point for the record/replay
    hooks ({!Sched.set_tap}, {!Sched.set_feed}). *)

val hooks : t -> Hooks.target
(** The machine's six hook slots, bundled for [Hooks.install]. *)

val stats : t -> Stats.t
val outcome : t -> Outcome.t option

val thread_summaries : t -> (int * string * string list) list
(** Same contract (and byte-identical output) as
    [Machine.thread_summaries]. *)

val thread_frames : t -> int -> (string * string * int * int option) list option
(** Same contract (and output) as [Machine.thread_frames]. *)

val steps : t -> int
(** Virtual time: scheduler steps taken so far (idle ticks included). *)

val step : t -> bool
(** Run one scheduler step; [false] once the program has finished. *)

val run : t -> Outcome.t
val run_program : ?config:config -> ?meta:meta -> Program.t -> t * Outcome.t
