(** ConAir: featherweight concurrency-bug recovery via single-threaded
    idempotent execution (Zhang, de Kruijf, Li, Lu, Sankaralingam —
    ASPLOS 2013), reimplemented for the Mir IR.

    The typical flow:

    {[
      let hardened = Conair.harden_exn program Conair.Survival in
      let run = Conair.execute_hardened hardened in
      (* run.outcome = Success; run.stats.rollbacks counts recoveries *)
    ]}

    The four layers are re-exported below: {!Ir} (the IR, builder and text
    syntax), {!Analysis} (failure sites, idempotent regions, slicing,
    inter-procedural recovery), {!Transform} (the hardening pass) and
    {!Runtime} (the interpreter with the recovery engine). *)

module Ir : sig
  module Ident = Conair_ir.Ident
  module Value = Conair_ir.Value
  module Instr = Conair_ir.Instr
  module Block = Conair_ir.Block
  module Func = Conair_ir.Func
  module Program = Conair_ir.Program
  module Builder = Conair_ir.Builder
  module Cfg = Conair_ir.Cfg
  module Validate = Conair_ir.Validate
  module Emit = Conair_ir.Emit
  module Parse = Conair_ir.Parse
end

module Analysis : sig
  module Site = Conair_analysis.Site
  module Find_sites = Conair_analysis.Find_sites
  module Region = Conair_analysis.Region
  module Slice = Conair_analysis.Slice
  module Optimize = Conair_analysis.Optimize
  module Callgraph = Conair_analysis.Callgraph
  module Interproc = Conair_analysis.Interproc
  module Plan = Conair_analysis.Plan
  module Prune = Conair_analysis.Prune
  module Viz = Conair_analysis.Viz
end

module Transform : sig
  module Rewrite = Conair_transform.Rewrite
  module Harden = Conair_transform.Harden
  module Report = Conair_transform.Report
  module Annotate = Conair_transform.Annotate
  module Lower = Conair_transform.Lower
end

module Runtime : sig
  module Outcome = Conair_runtime.Outcome
  module Heap = Conair_runtime.Heap
  module Locks = Conair_runtime.Locks
  module Link = Conair_runtime.Link
  module Thread = Conair_runtime.Thread
  module Sched = Conair_runtime.Sched
  module Stats = Conair_runtime.Stats
  module Machine = Conair_runtime.Machine
  module Ref_machine = Conair_runtime.Ref_machine
  module Compile = Conair_runtime.Compile
  module Block_machine = Conair_runtime.Block_machine
  module Engine = Conair_runtime.Engine
  module Hooks = Conair_runtime.Hooks
  module Trace = Conair_runtime.Trace
  module Profile = Conair_runtime.Profile
  module Race_probe = Conair_runtime.Race_probe
  module Flight_ring = Conair_runtime.Flight_ring
end

(** The dynamic race and deadlock detector: an online probe on either
    engine feeding three lenses — FastTrack-style happens-before race
    detection ([Hb]), Eraser-style lockset discipline checking
    ([Lockset]) and a lock-order graph with cycle detection
    ([Lockorder]). See [docs/DETECTION.md]. *)
module Race : sig
  module Vclock = Conair_race.Vclock
  module Report = Conair_race.Report
  module Hb = Conair_race.Hb
  module Lockset = Conair_race.Lockset
  module Lockorder = Conair_race.Lockorder
  module Detect = Conair_race.Detect
end

(** The observability layer: JSON encoding, streaming JSONL event logs,
    the metrics registry, recovery spans (with Chrome trace-event
    export), structured run reports, the deterministic cost profiler
    ([Prof]), the paper-style overhead harness ([Overhead]), and the
    cross-run aggregator ([Aggregate]). See [docs/OBSERVABILITY.md]. *)
module Obs : sig
  module Json = Conair_obs.Json
  module Jsonl = Conair_obs.Jsonl
  module Metrics = Conair_obs.Metrics
  module Span = Conair_obs.Span
  module Report = Conair_obs.Report
  module Prof = Conair_obs.Prof
  module Overhead = Conair_obs.Overhead
  module Aggregate = Conair_obs.Aggregate
  module Coverage = Conair_obs.Coverage
  module Campaign = Conair_obs.Campaign
  module Flight = Conair_obs.Flight
end

(** The two usage modes of §3.1: survival mode hardens every potential
    failure site against hidden bugs; fix mode hardens the instruction ids
    a user observed failing — a safe temporary patch for a bug whose root
    cause is unknown. *)
type mode = Conair_analysis.Plan.mode = Survival | Fix of int list

val mode_name : mode option -> string
(** ["none"] (run as written), ["survival"] or ["fix"] — the mode tag
    of schedule-log and bundle idents and of the serve protocol. *)

type hardened = {
  original : Conair_ir.Program.t;
  hardened : Conair_transform.Harden.t;
  plan : Conair_analysis.Plan.t;
  report : Conair_transform.Report.t;
}

val harden :
  ?analysis:Conair_analysis.Plan.options ->
  ?transform:Conair_transform.Harden.options ->
  Conair_ir.Program.t ->
  mode ->
  (hardened, string) result
(** The full static pipeline: failure-site identification,
    reexecution-point identification, optimization, inter-procedural
    analysis, and the code transformation. *)

val harden_exn :
  ?analysis:Conair_analysis.Plan.options ->
  ?transform:Conair_transform.Harden.options ->
  Conair_ir.Program.t ->
  mode ->
  hardened
(** @raise Invalid_argument on bad fix-mode sites. *)

(** What a run executes: a program as written, or a hardened program
    with its recovery metadata installed. *)
type subject = Program of Conair_ir.Program.t | Hardened of hardened

(** One program execution, everything measured about it, and what rode
    on it. [machine] is packed per engine; use {!Runtime.Engine}
    accessors for engine-generic access, or match on the constructor
    for engine-specific state. *)
type run = Conair_replay.Runner.t = {
  outcome : Conair_runtime.Outcome.t;
  outputs : string list;
  stats : Conair_runtime.Stats.t;
  machine : Conair_runtime.Engine.machine;
  log : Conair_replay.Schedule_log.t option;
      (** with [~record:true]: the schedule log that replays this run *)
  bundle : Conair_obs.Flight.t Lazy.t option;
      (** with [~flight:true]: the flight-recorder bundle, assembled when
          forced; its reason is ["failure"] if the run failed,
          ["requested"] otherwise *)
}

val run :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?hooks:Conair_runtime.Hooks.bundle ->
  ?ident:Conair_replay.Schedule_log.ident ->
  ?record:bool ->
  ?flight:bool ->
  subject ->
  run
(** Execute [subject] once on the chosen engine (default
    [Engine.Block], as for every entry point below; all engines produce
    identical runs, pick by speed) with [hooks] installed. [record]
    attaches the schedule recorder (the run's [log]); [flight] attaches
    the flight-recorder ring (the run's [bundle]: decision tail,
    preemptions, per-thread locksets, sync/recovery events, episode
    spans and a regeneration recipe — see {!Obs.Flight}). The block
    engine accounts both in bulk on its compiled windows, so they are
    cheap enough to leave on. [ident] names the log and the bundle; it
    defaults to ["program"] with the subject's mode
    ({!mode_name}). One run body serves every entry point below
    ({!Conair_replay.Runner.exec}). *)

val execute :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  Conair_ir.Program.t ->
  run
(** [run (Program p)]. *)

val execute_hardened :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  hardened ->
  run
(** [run (Hardened h)]. *)

(** One observed execution: the run itself plus every telemetry artifact
    the observability layer derives from it. *)
type run_report = {
  run : run;
  events : Conair_runtime.Trace.event list;  (** chronological *)
  spans : Conair_obs.Span.t list;  (** recovery spans, in start order *)
  metrics : Conair_obs.Metrics.t;
      (** the standard ConAir metric set plus the live event counters *)
  report : Conair_obs.Json.t;  (** the structured run report *)
}

val run_observed :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?meta_info:Conair_obs.Jsonl.run_meta ->
  ?trace_writer:Conair_obs.Jsonl.writer ->
  ?ident:Conair_replay.Schedule_log.ident ->
  ?record:bool ->
  ?flight:bool ->
  subject ->
  run_report
(** {!run} with the observability layer installed: live metrics are
    maintained from the event stream as the machine runs, each event is
    streamed to [trace_writer] as a JSONL line (preceded by a meta
    record when [meta_info] is given), and after the run the trace is
    folded into recovery spans, the standard metric set, and a
    structured JSON report. [ident], [record] and [flight] are {!run}'s:
    the log and bundle come from the same, traced, execution. The meta
    record and the report name the engine that ran and whether the
    subject was hardened, whatever [meta_info]'s [engine] and
    [hardened] fields said. The code path of [Conair_server.Job]'s run
    jobs, which the CLI's run/file/report subcommands and the serve
    daemon share. *)

val run_detected :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?options:Conair_race.Detect.options ->
  subject ->
  run * Conair_race.Report.t
(** {!run} with the race/deadlock detector installed, and the finalized
    report. Reports are deterministic in (program, config, policy,
    seed) and identical across all three engines. On a hardened subject
    — the mode that matters for fail-stop bugs — recovery keeps the run
    alive long enough for the conflicting access to execute (§6:
    recovery masks the symptom; detection un-masks the root cause). *)

(** ConSeq-style profile-based site pruning (§3.4): per-site execution
    counts over clean profiling runs of the original program. *)
type site_profile = {
  site : Conair_analysis.Site.t;
  executions : int;  (** across the profiled successful runs *)
}

val profile_sites :
  ?config:Conair_runtime.Machine.config ->
  ?runs:int ->
  Conair_ir.Program.t ->
  site_profile list

val well_tested : ?threshold:int -> site_profile list -> int list
(** Site iids executed at least [threshold] times — candidates for
    {!Conair_analysis.Plan.options.exclude_iids}. Beware the trade-off:
    a hidden bug at a well-tested site loses its recovery. *)

(** Schedule record-and-replay: the scheduler-decision recorder, the
    strict/directed replay feeds, the time-travel inspector and the
    failing-interleaving minimizer. Runs are deterministic in (program,
    config, policy, seed), so the chosen-thread stream is a complete
    witness of an execution: recording it makes any run — in particular a
    one-in-a-thousand failing interleaving from the fuzzer —
    reproducible, inspectable at any step, and minimizable to the few
    context switches that actually cause the failure. See
    [docs/REPLAY.md]. *)
module Replay : sig
  module Log = Conair_replay.Schedule_log
  module Recorder = Conair_replay.Recorder
  module Feed = Conair_replay.Feed
  module Driver = Conair_replay.Driver
  module Inspect = Conair_replay.Inspect
  module Minimize = Conair_replay.Minimize
  module Bundle = Conair_replay.Bundle
  module Runner = Conair_replay.Runner
end

(** Automated fix synthesis — closing the detect → explain → repair
    loop: {!Fix.Patch} synthesizes candidate patches (lock ladder,
    order enforcement, lock fusion) from a {!Race.Report} over the Mir
    program, {!Fix.Gates} validates each against the recorded failing
    schedule, a multi-seed regression sweep and the deadlock-freedom
    lens, and {!Fix.Pipeline} runs the whole loop end to end and ranks
    survivors by measured cost. See [docs/FIXING.md]. *)
module Fix : sig
  module Patch = Conair_fix.Patch
  module Gates = Conair_fix.Gates
  module Pipeline = Conair_fix.Pipeline
end

val record_run :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?ident:Replay.Log.ident ->
  ?race:Conair_runtime.Race_probe.probe ->
  Conair_ir.Program.t ->
  run * Replay.Log.t
(** [run ~record:true (Program p)], with [race] as its only hook (e.g.
    an {!Obs.Coverage} collector observing schedule coverage on the
    recorded run): the run plus a self-contained schedule log (embedded
    program, config, decision stream, result trailer) that replays it
    bit-for-bit on any engine. *)

val run_recorded :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?ident:Replay.Log.ident ->
  ?race:Conair_runtime.Race_probe.probe ->
  hardened ->
  run * Replay.Log.t
(** {!record_run} on [Hardened h]. The default ident carries the plan's
    mode ("survival" or "fix"). *)

val flight_of_log : Replay.Log.t -> (Conair_obs.Flight.t, string) result
(** Regenerate a diagnostic bundle (reason ["finding"]) from a recorded
    schedule log by deterministic re-run under the log's embedded
    program, config and engine — the fuzzer uses this to attach a
    post-mortem bundle to each unique finding in its corpus. Fails when
    the log carries no program or names an unknown engine. *)

val interleaving_signature : ?orders:(string * string) list ->
  Replay.Log.t -> string
(** The canonical interleaving signature of a recorded run
    ({!Obs.Coverage.signature} over the log's preemption-point sequence,
    contextualized by its ident and program MD5; [orders] adds a
    collector's per-address access orders). Byte-identical across
    engines and coordinator restarts — the campaign dedupe key. *)

val replay :
  ?engine:Replay.Driver.engine ->
  ?program:Conair_ir.Program.t ->
  ?meta:Conair_runtime.Machine.meta ->
  Replay.Log.t ->
  (Replay.Driver.result_bundle, Replay.Driver.error) result
(** Re-execute a recorded schedule with divergence detection; see
    {!Replay.Driver.replay}. *)

val minimize :
  ?engine:Conair_runtime.Engine.t ->
  ?max_tests:int ->
  ?detect:bool ->
  ?program:Conair_ir.Program.t ->
  ?meta:Conair_runtime.Machine.meta ->
  Replay.Log.t ->
  (Replay.Minimize.t, string) result
(** Shrink a failing recorded schedule to a locally minimal set of
    preemptions that still reproduces the failure; see
    {!Replay.Minimize.minimize}. *)

(** A recovery trial in the style of §5: run the hardened program many
    times (varying the random seed) and count successful, accepted runs. *)
type trial = {
  runs : int;
  recovered : int;
  total_rollbacks : int;
  max_recovery_steps : int;
}

val recovery_trial :
  ?config:Conair_runtime.Machine.config ->
  ?runs:int ->
  ?accept:(string list -> bool) ->
  hardened ->
  trial
