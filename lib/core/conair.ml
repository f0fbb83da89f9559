(** ConAir: featherweight concurrency-bug recovery via single-threaded
    idempotent execution (Zhang et al., ASPLOS 2013), reimplemented for the
    Mir IR.

    The typical flow is:

    {[
      let hardened = Conair.harden_exn program Conair.Survival in
      let run = Conair.execute_hardened hardened ~policy:Round_robin in
      (* run.outcome, run.stats.rollbacks, ... *)
    ]}

    Lower-level pieces are re-exported: [Conair.Ir] (the IR and builder),
    [Conair.Analysis] (failure sites, idempotent regions, slicing,
    inter-procedural recovery), [Conair.Transform] (the hardening pass) and
    [Conair.Runtime] (the interpreter with the recovery engine). *)

module Ir = struct
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

module Analysis = struct
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

module Transform = struct
  module Rewrite = Conair_transform.Rewrite
  module Harden = Conair_transform.Harden
  module Report = Conair_transform.Report
  module Annotate = Conair_transform.Annotate
  module Lower = Conair_transform.Lower
end

module Runtime = struct
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

module Race = struct
  module Vclock = Conair_race.Vclock
  module Report = Conair_race.Report
  module Hb = Conair_race.Hb
  module Lockset = Conair_race.Lockset
  module Lockorder = Conair_race.Lockorder
  module Detect = Conair_race.Detect
end

module Obs = struct
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

open Conair_ir
open Conair_analysis
open Conair_runtime

(** The two usage modes of §3.1: survival mode hardens every potential
    failure site; fix mode hardens the instruction ids the user observed
    failing. *)
type mode = Plan.mode = Survival | Fix of int list

type hardened = {
  original : Program.t;
  hardened : Conair_transform.Harden.t;
  plan : Plan.t;
  report : Conair_transform.Report.t;
}

(** Run the full ConAir pipeline: failure-site identification,
    reexecution-point identification, optimization, inter-procedural
    analysis, and the code transformation. *)
let harden ?(analysis = Plan.default_options)
    ?(transform = Conair_transform.Harden.default_options) (p : Program.t)
    (mode : mode) : (hardened, string) result =
  match Plan.analyze ~options:analysis p mode with
  | Error e -> Error e
  | Ok plan ->
      let h = Conair_transform.Harden.apply ~options:transform plan in
      Ok
        {
          original = p;
          hardened = h;
          plan;
          report = Conair_transform.Report.of_harden h;
        }

let harden_exn ?analysis ?transform p mode =
  match harden ?analysis ?transform p mode with
  | Ok h -> h
  | Error e -> invalid_arg ("Conair.harden: " ^ e)

(** One program execution and everything measured about it. [machine] is
    packed per engine; use [Engine.steps] / [Engine.sched] / ... for
    engine-generic access. *)
type run = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
}

let make_run machine outcome =
  {
    outcome;
    outputs = Engine.outputs machine;
    stats = Engine.stats machine;
    machine;
  }

let execute ?(config = Machine.default_config) ?(engine = Engine.Block)
    (p : Program.t) : run =
  let machine, outcome = Engine.run_program ~config engine p in
  make_run machine outcome

let execute_hardened ?(config = Machine.default_config)
    ?(engine = Engine.Block) (h : hardened) : run =
  let meta = Machine.meta_of_harden h.hardened in
  let machine, outcome =
    Engine.run_program ~config ~meta engine h.hardened.program
  in
  make_run machine outcome

(** One observed execution: the run itself plus every telemetry artifact
    the observability layer derives from it. *)
type run_report = {
  run : run;
  events : Trace.event list;
      (** the full trace, chronological (also streamed to [trace_writer]
          as the machine ran, when one was given) *)
  spans : Conair_obs.Span.t list;  (** recovery spans, in start order *)
  metrics : Conair_obs.Metrics.t;
      (** the standard ConAir metric set plus the live event counters *)
  report : Conair_obs.Json.t;  (** the structured run report *)
}

(** Run a hardened program with the full observability layer installed:
    live metrics fed from the event stream, optional JSONL streaming to
    [trace_writer] (meta record first when [meta_info] is given), and a
    post-run fold into spans, metrics and a structured JSON report. *)
let observed_with ~config ~engine ?meta ?meta_info ?trace_writer program :
    run_report =
  let live = Conair_obs.Metrics.create () in
  (match (trace_writer, meta_info) with
  | Some w, Some mi ->
      Conair_obs.Jsonl.write_json w (Conair_obs.Jsonl.meta_json ~config mi)
  | _ -> ());
  let emit ev =
    (match trace_writer with
    | Some w -> w.Conair_obs.Jsonl.write (Conair_obs.Jsonl.event_line ev)
    | None -> ());
    Conair_obs.Report.live_metrics live ev
  in
  let sink = Trace.create ~emit () in
  let m =
    Engine.create ~config ?meta ~hooks:(Hooks.bundle ~trace:sink ()) engine
      program
  in
  let outcome = Engine.run m in
  let run = make_run m outcome in
  let events = Trace.events sink in
  let spans = Conair_obs.Span.of_events events in
  let metrics = Conair_obs.Report.standard_metrics ~into:live run.stats in
  let report =
    Conair_obs.Report.run_json ?meta:meta_info ~config ~spans ~outcome
      ~outputs:run.outputs run.stats
  in
  { run; events; spans; metrics; report }

let run_observed ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?meta_info ?trace_writer (h : hardened) : run_report =
  let meta = Machine.meta_of_harden h.hardened in
  observed_with ~config ~engine ~meta ?meta_info ?trace_writer
    h.hardened.program

(** One fully-observed execution of [p] — hardened per [mode] first when
    one is given, as written when [mode] is [None] — with the same
    pipeline either way: live metrics fed from the event stream,
    optional JSONL streaming to [trace_writer], spans, and the
    structured report. This is the single code path behind both the
    CLI's run/report subcommands and the serve daemon's run jobs, which
    is what makes their reports byte-identical. *)
let run_report_of ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?meta_info ?trace_writer ~(mode : mode option) (p : Program.t) :
    run_report =
  match mode with
  | Some mode ->
      run_observed ~config ~engine ?meta_info ?trace_writer (harden_exn p mode)
  | None -> observed_with ~config ~engine ?meta_info ?trace_writer p

(** Run a hardened program with the cost profiler installed and return
    the finalized profile next to the run: per-context useful/checkpoint/
    wasted attribution, per-site rollback waste, flamegraph and Chrome
    counter exports (see [Obs.Prof]). *)
let run_profiled ?(config = Machine.default_config) ?(engine = Engine.Block)
    (h : hardened) : run * Conair_obs.Prof.t =
  let meta = Machine.meta_of_harden h.hardened in
  let prof = Conair_obs.Prof.create () in
  let m =
    Engine.create ~config ~meta
      ~hooks:(Hooks.bundle ~profile:(Conair_obs.Prof.probe prof) ())
      engine h.hardened.program
  in
  let outcome = Engine.run m in
  Conair_obs.Prof.finalize prof;
  (make_run m outcome, prof)

(** Run a program with the race/deadlock detector installed and return
    the finalized report next to the run. Pass [meta] (from
    [Machine.meta_of_harden]) to detect on a hardened program — the mode
    that matters for fail-stop bugs, where recovery keeps the run alive
    long enough for the conflicting access to execute. *)
let run_detected ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?options ?meta (p : Program.t) : run * Conair_race.Report.t =
  let d = Conair_race.Detect.create ?options () in
  let m =
    Engine.create ~config ?meta
      ~hooks:(Hooks.bundle ~race:(Conair_race.Detect.probe d) ())
      engine p
  in
  let outcome = Engine.run m in
  (make_run m outcome, Conair_race.Detect.report d)

(** [run_detected] on a hardened program with its recovery metadata. *)
let detect_hardened ?config ?engine ?options (h : hardened) =
  run_detected ?config ?engine ?options
    ~meta:(Machine.meta_of_harden h.hardened)
    h.hardened.program

(** Schedule record-and-replay: the scheduler-decision recorder, the
    strict/directed replay feeds, the time-travel inspector and the
    failing-interleaving minimizer (see [docs/REPLAY.md]). *)
module Replay = struct
  module Log = Conair_replay.Schedule_log
  module Recorder = Conair_replay.Recorder
  module Feed = Conair_replay.Feed
  module Driver = Conair_replay.Driver
  module Inspect = Conair_replay.Inspect
  module Minimize = Conair_replay.Minimize
  module Bundle = Conair_replay.Bundle
end

(** Automated fix synthesis: from a race report and a recorded failing
    schedule, candidate patches over Mir, validated through three gates
    (directed replay, regression sweep, deadlock-freedom) and ranked by
    measured cost (see [docs/FIXING.md]). *)
module Fix = struct
  module Patch = Conair_fix.Patch
  module Gates = Conair_fix.Gates
  module Pipeline = Conair_fix.Pipeline
end

let mode_name : mode -> string = function
  | Survival -> "survival"
  | Fix _ -> "fix"

(* Record while keeping the machine, so the result is a full facade
   [run] next to the schedule log. [race] rides along in the same scoped
   install — campaign workers observe schedule coverage (the
   [Obs.Coverage] collector probe) on the very run they record. *)
let record_into ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?meta ?race ~ident program : run * Replay.Log.t =
  let r = Conair_replay.Recorder.create () in
  let m =
    Engine.create ~config ?meta
      ~hooks:
        (Hooks.bundle ?race ~tap:(Conair_replay.Recorder.tap r)
           ~tap_run:(Conair_replay.Recorder.tap_run r) ())
      engine program
  in
  let outcome = Engine.run m in
  let run = make_run m outcome in
  let bundle =
    {
      Conair_replay.Driver.rb_outcome = outcome;
      rb_outputs = run.outputs;
      rb_stats = run.stats;
      rb_steps = Engine.steps m;
    }
  in
  ( run,
    Conair_replay.Driver.log_of_run ~engine ~config ?meta ~ident ~program r
      bundle )

(** [execute] with the schedule recorder installed: the run plus a
    self-contained schedule log that replays it bit-for-bit. *)
let record_run ?config ?engine ?ident ?race (p : Program.t) :
    run * Replay.Log.t =
  let ident =
    match ident with
    | Some i -> i
    | None -> Conair_replay.Schedule_log.ident "program"
  in
  record_into ?config ?engine ?race ~ident p

(** [execute_hardened] with the schedule recorder installed. The default
    ident carries the plan's mode ("survival" or "fix"). *)
let run_recorded ?config ?engine ?ident ?race (h : hardened) :
    run * Replay.Log.t =
  let ident =
    match ident with
    | Some i -> i
    | None ->
        Conair_replay.Schedule_log.ident ~mode:(mode_name h.plan.Plan.mode)
          "program"
  in
  record_into ?config ?engine ?race
    ~meta:(Machine.meta_of_harden h.hardened)
    ~ident h.hardened.program

(** Run with the flight recorder attached: the run plus the diagnostic
    bundle its ring retained — the always-on post-mortem artifact. The
    block engine accounts the ring in bulk on its window fast path, so
    this is cheap enough to leave on everywhere. *)
let run_flight ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?meta ?cap ?reason ~ident program : run * Conair_obs.Flight.t =
  let m, outcome, bundle =
    Conair_replay.Bundle.capture ~engine ~config ?meta ?cap ?reason ~ident
      program
  in
  (make_run m outcome, bundle)

(** Regenerate a diagnostic bundle from a recorded schedule log by
    deterministic re-run — how the fuzzer attaches a post-mortem bundle
    to each unique finding it already holds as a log. *)
let flight_of_log ?cap ?(reason = "finding") (log : Replay.Log.t) :
    (Conair_obs.Flight.t, string) result =
  let ( let* ) = Result.bind in
  let* program = Conair_replay.Schedule_log.program log in
  let* engine =
    Engine.of_string log.Conair_replay.Schedule_log.engine
  in
  let meta = Conair_replay.Schedule_log.machine_meta log in
  let _, _, bundle =
    Conair_replay.Bundle.capture ~engine
      ~config:log.Conair_replay.Schedule_log.config ?meta ?cap ~reason
      ~ident:log.Conair_replay.Schedule_log.ident program
  in
  Ok bundle

(** The canonical interleaving signature of a recorded run: the
    [Obs.Coverage] digest over the log's preemption-point sequence,
    contextualized by the recorded ident and program MD5 (so identical
    shapes of different programs stay distinct). Pass the per-address
    access orders of an [Obs.Coverage] collector that watched the run to
    sharpen the signature with data-access ordering. Engine-independent:
    the log's decision stream and the collector's event stream are
    byte-identical across ref/fast/block. *)
let interleaving_signature ?orders (log : Replay.Log.t) : string =
  let ident = log.Conair_replay.Schedule_log.ident in
  Conair_obs.Coverage.signature
    ~context:
      (Printf.sprintf "%s/%s/%s" ident.Conair_replay.Schedule_log.id_app
         ident.Conair_replay.Schedule_log.id_variant
         log.Conair_replay.Schedule_log.program_md5)
    ?orders
    ~decisions:log.Conair_replay.Schedule_log.decisions
    ~preemptions:log.Conair_replay.Schedule_log.preemptions ()

(** Re-execute a recorded schedule on either engine, detecting any
    divergence from the recording as a structured error. *)
let replay ?engine ?program ?meta (log : Replay.Log.t) =
  Conair_replay.Driver.replay ?engine ?program ?meta log

(** Shrink a failing recorded schedule to a locally minimal set of
    preemptions that still reproduces the failure. *)
let minimize ?engine ?max_tests ?detect ?program ?meta (log : Replay.Log.t) =
  Conair_replay.Minimize.minimize ?engine ?max_tests ?detect ?program ?meta log

(** A recovery trial in the style of §5: run the hardened program [runs]
    times (varying the random-scheduler seed) and report how many runs
    finished successfully with acceptable outputs. *)
type trial = {
  runs : int;
  recovered : int;
  total_rollbacks : int;
  max_recovery_steps : int;
}

(** ConSeq-style profile-based site pruning (§3.4: "use dynamic technique
    like ConSeq to prune well tested potential failure sites").

    [profile_sites] runs the *original* program [runs] times (varying the
    random seed when the policy is random) with per-instruction profiling
    and returns, for each survival-mode failure site, how often its
    instruction executed across runs where the program succeeded.

    [well_tested ~threshold] extracts the site iids executed at least
    [threshold] times — candidates for exclusion via
    [Plan.options.exclude_iids]. The trade-off is real and demonstrated in
    the tests and the A6 ablation: a hidden bug at a well-tested site
    loses its recovery. *)
type site_profile = {
  site : Analysis.Site.t;
  executions : int;  (** across the profiled successful runs *)
}

let profile_sites ?(config = Machine.default_config) ?(runs = 5)
    (p : Program.t) : site_profile list =
  let sites = Conair_analysis.Find_sites.survival p in
  let totals = Hashtbl.create 64 in
  for i = 1 to runs do
    let config =
      {
        config with
        profile_sites = true;
        policy =
          (match config.policy with
          | Sched.Random seed -> Sched.Random (seed + i)
          | Sched.Round_robin -> Sched.Round_robin);
      }
    in
    let m, outcome = Machine.run_program ~config p in
    if Outcome.is_success outcome then
      List.iter
        (fun (s : Conair_analysis.Site.t) ->
          let n = Stats.iid_hits_of (Machine.stats m) s.iid in
          Hashtbl.replace totals s.site_id
            (n + Option.value ~default:0 (Hashtbl.find_opt totals s.site_id)))
        sites
  done;
  List.map
    (fun (s : Conair_analysis.Site.t) ->
      {
        site = s;
        executions = Option.value ~default:0 (Hashtbl.find_opt totals s.site_id);
      })
    sites

let well_tested ?(threshold = 1) (profiles : site_profile list) : int list =
  List.filter_map
    (fun pr -> if pr.executions >= threshold then Some pr.site.iid else None)
    profiles

let recovery_trial ?(config = Machine.default_config) ?(runs = 50)
    ?(accept = fun (_ : string list) -> true) (h : hardened) : trial =
  let recovered = ref 0 and rollbacks = ref 0 and max_rec = ref 0 in
  for i = 1 to runs do
    let config =
      match config.policy with
      | Sched.Random seed -> { config with policy = Sched.Random (seed + i) }
      | Sched.Round_robin -> config
    in
    let r = execute_hardened ~config h in
    if Outcome.is_success r.outcome && accept r.outputs then incr recovered;
    rollbacks := !rollbacks + r.stats.rollbacks;
    max_rec := max !max_rec (Stats.max_recovery_time r.stats)
  done;
  {
    runs;
    recovered = !recovered;
    total_rollbacks = !rollbacks;
    max_recovery_steps = !max_rec;
  }
