(** Flight-recorder bundles as replay artifacts.

    A bundle is captured on the run it describes, by
    {!Runner.exec}[ ~flight:true]. {!recover_log} re-runs a
    bundle's embedded program under its embedded config with the full
    recorder attached, verifies the re-run against the recorded tail
    (decision suffix, preemption ordinals, trailer — any disagreement
    rejects the bundle) and returns an ordinary schedule log, after which
    strict replay, directed replay and minimization apply unchanged. *)

open Conair_runtime

val recover_log :
  ?engine:Engine.t -> Conair_obs.Flight.t -> (Schedule_log.t, string) result
(** Regenerate a full schedule log from a bundle by deterministic re-run.
    [engine] defaults to the bundle's recorded engine. Fails when the
    bundle carries no program, the embedded text's MD5 mismatches, or
    the re-run's decision suffix / tail preemptions / trailer disagree
    with what the ring retained. *)
