(** The recorder: a scheduler tap ({!Conair_runtime.Sched.set_tap}) that
    captures every scheduling decision — the chosen-thread stream — and
    classifies each as preemptive (the previous thread was still eligible
    when another was chosen) or forced. *)

open Conair_runtime

type t

val create : unit -> t

val tap : t -> Sched.tap
(** The tap itself — exposed so callers can compose it with their own
    observation in a single scheduler tap. *)

val tap_run : t -> tid:int -> int -> unit
(** The tap's forced-run entry ({!Conair_runtime.Sched.forced_run}):
    appends [n] decisions of [tid], none of them preemptive. *)

val hooks : t -> Hooks.bundle
(** A bundle carrying just this recorder: {!tap} with {!tap_run}. *)

val count : t -> int
(** Decisions recorded so far. *)

val decisions : t -> int array
val preemptions : t -> int array
(** Ordinals into {!decisions} of the preemptive switches, ascending. *)

val signature :
  ?context:string -> ?orders:(string * string) list -> t -> string
(** The interleaving signature of the recording so far, streamed off the
    recorder's own buffer: equal to
    [Conair_obs.Coverage.signature ?context ?orders ~decisions:(decisions t)
    ~preemptions:(preemptions t) ()] without building either array. *)
