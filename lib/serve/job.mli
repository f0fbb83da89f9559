(** Job execution — the one implementation of each job kind, shared by
    the serve daemon ({!execute}) and the CLI (the typed entry points,
    which [conair_cli] calls for run, file, report, harden, races,
    minimize and fix). A served report, bundle and exit code equal the
    CLI's for the same inputs because both come from here. Exit codes:
    0 ok, 1 error, 2 failed run (or no surviving fix candidate), 3
    detector findings. *)

module Json = Conair_obs.Json

type outcome = {
  jr_status : string;  (** "ok" | "error" *)
  jr_exit : int;  (** the CLI-equivalent exit code *)
  jr_report : Json.t;  (** the job's structured result document *)
  jr_record : Json.t option;
      (** the fuzzer's run record ({!Conair_obs.Aggregate.run_record}),
          for cross-job aggregation *)
  jr_spans : Json.t option;  (** Chrome trace document (run jobs) *)
  jr_bundle : Json.t option;
      (** flight-recorder diagnostic bundle — present when a served run
          job failed: the ring rode on the job's one execution, and the
          bundle equals the one the CLI's [run --flight] writes for the
          same inputs *)
}

type 'a typed = { value : 'a; outcome : outcome }
(** A typed entry point's result: the library value the CLI renders,
    next to the outcome {!execute} returns for the same job. *)

val config_of_exec : Protocol.exec -> Conair_runtime.Machine.config
(** Fuel, retry budget and scheduling policy ([Random seed], or
    round-robin without a seed) over [Machine.default_config]. *)

(** {2 Targets} *)

type target = {
  label : string;
      (** the app name, or ["source"] for inline programs; names the run
          in report meta, run records and capture idents *)
  variant : string;  (** "buggy" | "clean" *)
  oracle : bool;
      (** effective: requested, or needed by the app to see its
          wrong-output failures *)
  inst : Conair_bugbench.Bench_spec.instance;
}

val find_app : string -> (Conair_bugbench.Bench_spec.t, string) result
(** A registry benchmark by name; the error lists the known names. *)

val resolve : Protocol.target -> (target, string) result
(** Build the program a job executes. Inline source must parse and
    validate; it gets the trivial instance (no fix sites, accept-all). *)

val mode_of : target -> string -> (Conair.mode option, string) result
(** ["none"], ["survival"] or ["fix"] (which needs known failing
    sites). *)

(** {2 Typed entry points} *)

val run :
  ?trace_writer:Conair_obs.Jsonl.writer ->
  ?record:bool ->
  ?flight:bool ->
  target ->
  mode:Conair.mode option ->
  Protocol.exec ->
  Conair.run_report typed
(** One observed run ({!Conair.run_observed}), hardened per [mode] and
    executed exactly once: [trace_writer] gets the JSONL trace,
    [record] keeps the run's schedule log and [flight] its flight
    bundle (in the value's [run]). The log and bundle ident carries the
    target's label, variant and effective oracle flag and the mode; a
    caller choosing another label overrides [label] in the target. Exit
    0 on success, 2 on failure. The outcome carries no bundle: {!execute}
    adds it for a failed served run. *)

val harden :
  ?analysis:Conair.Analysis.Plan.options ->
  target ->
  Conair.mode ->
  (Conair.hardened typed, string) result
(** The static pipeline; the report carries the hardened program
    text. *)

val detect :
  ?options:Conair.Race.Detect.options ->
  target ->
  original:bool ->
  Protocol.exec ->
  (Conair.run * Conair.Race.Report.t) typed
(** Race/deadlock detection on the survival-hardened program (or the
    original one). Exit 3 on races or actual deadlocks. *)

val minimize :
  ?program:Conair.Ir.Program.t ->
  max_tests:int ->
  detect:bool ->
  Conair.Replay.Log.t ->
  (Conair.Replay.Minimize.t typed, string) result
(** ddmin over a failing schedule log; [program] replaces the log's
    embedded program (verified against its MD5). *)

val fix :
  target ->
  max_candidates:int ->
  sweep_seeds:int ->
  search_seeds:int ->
  Protocol.exec ->
  Conair.Fix.Pipeline.t typed
(** The fix pipeline on the exec's engine, fuel and retry budget. Exit 2
    when no candidate survives. *)

(** {2 Served jobs} *)

val execute : ?telemetry:(Json.t -> unit) -> Protocol.spec -> outcome
(** Execute one job, streaming per-job telemetry records (trace-event
    lines for run jobs, per-seed run records for fuzz jobs) through
    [telemetry] as they are produced. Never raises: failures come back
    as an ["error"] outcome with exit 1. *)
