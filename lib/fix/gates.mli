(** The three validation gates of the fix pipeline.

    1. {b replay}: the recorded failing schedule, driven through the
       divergence-safe directed feed against the patched program
       ({!Conair_replay.Driver.replay_directed}), must now succeed;
    2. {b regression}: a multi-seed sweep must show no failing or
       hanging run and no oracle-rejected output;
    3. {b deadlock-freedom}: the same sweep, watched by the race
       detector's lock-order lens, must mint no lock-order cycle the
       unpatched baseline did not already have.

    Gates 2 and 3 share one detector-instrumented {!sweep} per
    candidate. All results are deterministic in (program, config,
    seeds) and byte-identical across the ref/fast/block engines. *)

open Conair_ir
open Conair_runtime

type result = { g_gate : string; g_passed : bool; g_detail : string }

val replay_gate :
  ?engine:Engine.t ->
  ?accept:(string list -> bool) ->
  log:Conair_replay.Schedule_log.t ->
  Program.t ->
  result
(** Gate 1 against the patched program, on [engine] (default [Block],
    the [Pipeline.default_options] engine). Never raises — where the
    patch makes the recording unfollowable (a thread newly blocks),
    control falls to the next eligible thread. *)

type sweep = {
  sw_runs : int;
  sw_failures : int;  (** failed / hung / fuel-exhausted runs *)
  sw_rejected : int;  (** successful runs with oracle-rejected outputs *)
  sw_signatures : int;  (** distinct interleaving signatures exercised *)
  sw_cycle_keys : string list;
      (** union of lock-order cycle keys seen, sorted *)
  sw_first_failure : string option;
}

val sweep :
  ?engine:Engine.t ->
  ?accept:(string list -> bool) ->
  config:Machine.config ->
  seeds:int ->
  Program.t ->
  sweep
(** One round-robin run plus [seeds] seeded random runs on [engine]
    (default [Block], as for {!replay_gate}), each under the race
    detector and the schedule recorder. A run's signature is streamed
    off the recorder ({!Conair_replay.Recorder.signature}); no decision
    array is built. *)

val regression_gate : sweep -> result
(** Gate 2 over a candidate's sweep. *)

val deadlock_gate : baseline:sweep -> sweep -> result
(** Gate 3: cycle keys of the candidate's sweep not present in the
    baseline sweep of the unpatched program. *)

val result_json : result -> Conair_obs.Json.t
