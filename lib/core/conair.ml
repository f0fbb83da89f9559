(** ConAir: featherweight concurrency-bug recovery via single-threaded
    idempotent execution (Zhang et al., ASPLOS 2013), reimplemented for the
    Mir IR.

    The typical flow is:

    {[
      let hardened = Conair.harden_exn program Conair.Survival in
      let run = Conair.execute_hardened hardened in
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

let mode_name : mode option -> string = function
  | None -> "none"
  | Some Survival -> "survival"
  | Some (Fix _) -> "fix"

(** What a run executes: a program as written, or a hardened one with
    its recovery metadata. *)
type subject = Program of Program.t | Hardened of hardened

(** One program execution, what was measured about it and what rode on
    it. [machine] is packed per engine; use [Engine.steps] /
    [Engine.sched] / ... for engine-generic access. *)
type run = Conair_replay.Runner.t = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
  log : Conair_replay.Schedule_log.t option;
  bundle : Conair_obs.Flight.t Lazy.t option;
}

(** The facade's one run: [subject] executed once through
    [Conair_replay.Runner.exec]. The default ident names the subject's
    mode. *)
let run ?config ?engine ?hooks ?ident ?record ?flight subject : run =
  let program, meta, mode =
    match subject with
    | Program p -> (p, None, None)
    | Hardened h ->
        ( h.hardened.program,
          Some (Machine.meta_of_harden h.hardened),
          Some h.plan.Plan.mode )
  in
  let ident =
    match ident with
    | Some i -> i
    | None -> Conair_replay.Schedule_log.ident ~mode:(mode_name mode) "program"
  in
  Conair_replay.Runner.exec ?engine ?config ?meta ?hooks ~ident ?record
    ?flight program

let execute ?config ?engine p = run ?config ?engine (Program p)
let execute_hardened ?config ?engine h = run ?config ?engine (Hardened h)

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

(** [run] with the full observability layer installed: live metrics fed
    from the event stream, optional JSONL streaming to [trace_writer]
    (meta record first when [meta_info] is given), and a post-run fold
    into spans, metrics and a structured JSON report. The recorder and
    the flight ring ride on the same run. *)
let run_observed ?(config = Machine.default_config) ?(engine = Engine.Block)
    ?meta_info ?trace_writer ?ident ?record ?flight subject : run_report =
  (* the meta record names the engine that ran and whether the program
     was hardened, whatever the caller's record said *)
  let meta_info =
    Option.map
      (fun mi ->
        {
          mi with
          Conair_obs.Jsonl.engine = Engine.name engine;
          hardened =
            (match subject with Hardened _ -> true | Program _ -> false);
        })
      meta_info
  in
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
  let r =
    run ~config ~engine ~hooks:(Hooks.bundle ~trace:sink ()) ?ident ?record
      ?flight subject
  in
  let events = Trace.events sink in
  let spans = Conair_obs.Span.of_events events in
  let metrics = Conair_obs.Report.standard_metrics ~into:live r.stats in
  let report =
    Conair_obs.Report.run_json ?meta:meta_info ~config ~spans
      ~outcome:r.outcome ~outputs:r.outputs r.stats
  in
  { run = r; events; spans; metrics; report }

(** Run with the race/deadlock detector installed and return the
    finalized report next to the run. On a hardened subject — the mode
    that matters for fail-stop bugs — recovery keeps the run alive long
    enough for the conflicting access to execute. *)
let run_detected ?config ?engine ?options subject : run * Conair_race.Report.t
    =
  let d = Conair_race.Detect.create ?options () in
  let r =
    run ?config ?engine
      ~hooks:(Hooks.bundle ~race:(Conair_race.Detect.probe d) ())
      subject
  in
  (r, Conair_race.Detect.report d)

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
  module Runner = Conair_replay.Runner
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

(* [race] rides along in the same hook bundle — campaign workers
   observe schedule coverage (the [Obs.Coverage] collector probe) on the
   very run they record. *)
let recorded ?config ?engine ?ident ?race subject =
  let r =
    run ?config ?engine ~hooks:(Hooks.bundle ?race ()) ?ident ~record:true
      subject
  in
  (r, Option.get r.log)

let record_run ?config ?engine ?ident ?race p =
  recorded ?config ?engine ?ident ?race (Program p)

let run_recorded ?config ?engine ?ident ?race h =
  recorded ?config ?engine ?ident ?race (Hardened h)

(** Regenerate a diagnostic bundle from a recorded schedule log by
    deterministic re-run — how the fuzzer attaches a post-mortem bundle
    to each unique finding it already holds as a log. *)
let flight_of_log (log : Replay.Log.t) : (Conair_obs.Flight.t, string) result
    =
  let ( let* ) = Result.bind in
  let* program = Conair_replay.Schedule_log.program log in
  let* engine = Engine.of_string log.Conair_replay.Schedule_log.engine in
  let r =
    Conair_replay.Runner.exec ~engine
      ~config:log.Conair_replay.Schedule_log.config
      ?meta:(Conair_replay.Schedule_log.machine_meta log)
      ~ident:log.Conair_replay.Schedule_log.ident ~flight:true program
  in
  Ok
    {
      (Lazy.force (Option.get r.bundle)) with
      Conair_obs.Flight.fb_reason = "finding";
    }

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
