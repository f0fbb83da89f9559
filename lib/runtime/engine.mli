(** Engine selection: one name and one generic driver API over the
    three interpreters.

    - [Ref] — the original map-based reference interpreter
      ([Ref_machine]), the semantic oracle; deliberately slow.
    - [Fast] — the pre-resolved engine ([Machine]): dense register
      arrays, linked jump/call targets.
    - [Block] — the block-compiled engine ([Block_machine]): threaded
      code over the linked program, scheduler consulted only at
      schedulable ops; the fastest.

    All three agree bit-for-bit on every observable; pick by speed. *)

open Conair_ir

type t = Ref | Fast | Block

val all : t list
(** In oracle-to-fastest order: [Ref; Fast; Block]. *)

val name : t -> string
(** ["ref"], ["fast"], ["block"] — the names the CLI and schedule logs
    use. *)

val of_string : string -> (t, string) result

(** A machine of whichever engine was selected. *)
type machine =
  | M_ref of Ref_machine.t
  | M_fast of Machine.t
  | M_block of Block_machine.t

val create :
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?hooks:Hooks.bundle ->
  t ->
  Program.t ->
  machine
(** [hooks] attaches the run's observation hooks at construction; see
    [Machine.create]. *)

val engine_of : machine -> t
val run : machine -> Outcome.t
val step : machine -> bool
val outputs : machine -> string list
val stats : machine -> Stats.t
val steps : machine -> int
val outcome : machine -> Outcome.t option
val sched : machine -> Sched.t

val hooks : machine -> Hooks.target
(** The machine's six hook slots, for [Hooks.install]. *)

val thread_summaries : machine -> (int * string * string list) list
(** [Machine.thread_summaries] on whichever engine — byte-identical
    across the three. *)

val thread_frames :
  machine -> int -> (string * string * int * int option) list option
(** [Machine.thread_frames] on whichever engine — identical across the
    three. *)

val run_program :
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?hooks:Hooks.bundle ->
  t ->
  Program.t ->
  machine * Outcome.t
