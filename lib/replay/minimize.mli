(** Failing-interleaving minimization: Zeller-style delta debugging
    (ddmin) over a recorded schedule's preemption points.

    The recorded schedule is recast as context-switch directives;
    switches forced by blocking are kept, the preemptive ones are
    searched. The result is a locally minimal set of preemptions that
    still reproduces the recorded failure, re-recorded into a
    strict-replayable log, with a switch-by-switch explanation and — when
    the detector fires on the minimized schedule — the race/deadlock
    report naming the root cause. See [docs/REPLAY.md]. *)

open Conair_runtime

(** One context switch of the minimized run, with the program points it
    connects. *)
type switch = {
  sw_index : int;  (** ordinal in the minimized decision stream *)
  sw_step : int;
  sw_from : int;
  sw_to : int;
  sw_from_at : string;  (** where the preempted thread stood *)
  sw_to_at : string;  (** where the incoming thread resumes *)
  sw_preemptive : bool;
}

type t = {
  mn_log : Schedule_log.t;  (** minimized, strict-replayable *)
  mn_original : int;  (** preemptive switches in the input log *)
  mn_minimized : int;  (** preemptive directives the failure needs *)
  mn_tests : int;  (** candidate executions run by ddmin *)
  mn_switches : switch list;  (** every switch of the minimized run *)
  mn_races : Conair_race.Report.t option;
}

val same_failure : Outcome.t -> Outcome.t -> bool
(** Same bug, not same run: failure kind/site/message must match; hang
    participants and step counts may shift. *)

val minimize :
  ?engine:Engine.t ->
  ?max_tests:int ->
  ?detect:bool ->
  ?program:Conair_ir.Program.t ->
  ?meta:Machine.meta ->
  Schedule_log.t ->
  (t, string) result
(** [engine] (default [Block]) runs the candidate executions, the
    final re-recording and the detector pass; every engine yields the
    same result, down to the minimized log's bytes but for its engine
    stamp. [max_tests] (default 2000) bounds candidate executions; [detect]
    (default true) runs the race detector on the minimized schedule.
    Fails when the recorded run succeeded, when the failure does not
    reproduce from the recorded switch points, or on a program
    mismatch. *)

val to_json : t -> Conair_obs.Json.t
val render : t -> string
