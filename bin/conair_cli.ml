(* The ConAir command-line interface.

   Subcommands:
   - [list]            benchmarks in the registry
   - [show APP]        print the benchmark's Mir program
   - [analyze APP]     run the static pipeline, print per-site plans
   - [harden APP]      print the transformed (hardened) program
   - [run APP]         execute (optionally hardened), print the outcome
   - [report APP]      execute observed, emit the structured run report
   - [restart APP]     the whole-program-restart baseline
   - [fullckpt APP]    the whole-program-checkpoint baseline
   - [replay --log F]  re-execute a recorded schedule, inspect any step
   - [minimize --log F] shrink a failing schedule to its essential switches

   The job kinds the serve daemon also runs (run, file, report, harden,
   races, minimize, fix) execute through [Conair_server.Job], so their
   reports, bundles and exit codes are the daemon's; this file parses
   flags, renders text and writes files.

   Examples:
     conair_cli analyze HawkNL
     conair_cli run MozillaXP --hardened --variant buggy
     conair_cli run HawkNL --trace-json t.jsonl --metrics m.json --spans s.json
     conair_cli report HawkNL --prometheus
     conair_cli run FFT --variant clean --no-harden
     conair_cli run HawkNL --no-harden --record hawknl.sched.jsonl
     conair_cli replay --log hawknl.sched.jsonl --at 40
     conair_cli minimize --log hawknl.sched.jsonl --out minimal.sched.jsonl *)

open Cmdliner
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Protocol = Conair_server.Protocol
module Job = Conair_server.Job
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Outcome = Conair.Runtime.Outcome
module Stats = Conair.Runtime.Stats
module Trace = Conair.Runtime.Trace
module Plan = Conair.Analysis.Plan
module Obs = Conair.Obs
module Replay = Conair.Replay

(* Print the error and exit 1, or go on with the value. *)
let ( let@ ) r k =
  match r with
  | Error e ->
      prerr_endline e;
      1
  | Ok v -> k v

(* --- shared arguments --------------------------------------------- *)

let app_arg =
  let doc = "Benchmark application name (see the list subcommand)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let variant_arg =
  let doc = "Program variant: buggy (failure-inducing sleeps) or clean." in
  let v = Arg.enum [ ("buggy", "buggy"); ("clean", "clean") ] in
  Arg.(value & opt v "buggy" & info [ "variant" ] ~doc)

let oracle_arg =
  let doc =
    "Include developer output-correctness oracles (needed to detect \
     wrong-output failures)."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

(* APP, --variant and --oracle, resolved to the program a job runs *)
let target_term =
  let resolve app variant oracle =
    Job.resolve (Protocol.Bench { app; variant; oracle })
  in
  Term.(const resolve $ app_arg $ variant_arg $ oracle_arg)

let fuel_arg =
  Arg.(
    value
    & opt int Protocol.default_exec.fuel
    & info [ "fuel" ] ~doc:"Scheduler-step budget before giving up.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ]
        ~doc:"Use a random scheduler with this seed (default: round-robin).")

let max_retries_arg =
  Arg.(
    value
    & opt int Protocol.default_exec.max_retries
    & info [ "max-retries" ] ~doc:"Per-site recovery retry budget.")

let no_optimize_arg =
  Arg.(
    value & flag
    & info [ "no-optimize" ]
        ~doc:"Disable the unnecessary-rollback optimization (section 4.2).")

let no_interproc_arg =
  Arg.(
    value & flag
    & info [ "no-interproc" ]
        ~doc:"Disable inter-procedural recovery (section 4.3).")

let prune_arg =
  Arg.(
    value & flag
    & info [ "prune-safe" ]
        ~doc:
          "Drop failure sites statically proven unable to fail (section \
           3.4 extension).")

let depth_arg =
  Arg.(
    value & opt int 3
    & info [ "depth" ]
        ~doc:"Inter-procedural recovery caller-chain depth budget.")

let engine_arg =
  let doc =
    "Execution engine: the reference interpreter (ref), the pre-resolved \
     interpreter (fast) or the block-compiled interpreter (block). All \
     three agree bit-for-bit on every observable; pick by speed."
  in
  let e = Arg.enum (List.map (fun e -> (Engine.name e, e)) Engine.all) in
  Arg.(
    value
    & opt e Protocol.default_exec.engine
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* --engine, --fuel, --seed and --max-retries as a job's exec knobs *)
let exec_term =
  let exec engine fuel seed max_retries =
    { Protocol.engine; fuel; seed; max_retries }
  in
  Term.(const exec $ engine_arg $ fuel_arg $ seed_arg $ max_retries_arg)

(* The default knobs at [fuel]: round-robin, the default retry budget. *)
let config_at_fuel fuel =
  Job.config_of_exec { Protocol.default_exec with fuel }

let analysis_options no_optimize no_interproc depth prune_safe =
  {
    Plan.optimize = not no_optimize;
    interproc = not no_interproc;
    max_depth = depth;
    prune_safe;
    exclude_iids = [];
  }

(* --- subcommands --------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "%-13s %-34s %-8s %-12s %s\n" s.info.name
          s.info.app_type s.info.loc_paper s.info.failure s.info.cause)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark applications.")
    Term.(const run $ const ())

let show_cmd =
  let run target =
    let@ (t : Job.target) = target in
    Format.printf "%a@." Conair.Ir.Program.pp t.inst.program;
    0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the benchmark's Mir program.")
    Term.(const run $ target_term)

let analyze_cmd =
  let run target no_opt no_ip depth prune =
    let@ t = target in
    let analysis = analysis_options no_opt no_ip depth prune in
    let@ h = Job.harden ~analysis t Conair.Survival in
    List.iter
      (fun sp -> Format.printf "%a@." Plan.pp_site_plan sp)
      h.value.plan.site_plans;
    Format.printf "@.%a@." Conair.Transform.Report.pp h.value.report;
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the ConAir static analysis and print every site plan.")
    Term.(
      const run $ target_term $ no_optimize_arg $ no_interproc_arg
      $ depth_arg $ prune_arg)

let harden_cmd =
  let run target no_opt no_ip depth prune =
    let@ t = target in
    let analysis = analysis_options no_opt no_ip depth prune in
    let@ h = Job.harden ~analysis t Conair.Survival in
    Format.printf "%a@." Conair.Ir.Program.pp h.value.hardened.program;
    0
  in
  Cmd.v
    (Cmd.info "harden" ~doc:"Print the transformed (hardened) Mir program.")
    Term.(
      const run $ target_term $ no_optimize_arg $ no_interproc_arg
      $ depth_arg $ prune_arg)

(* --- run, report and file ------------------------------------------ *)

(* One observed run ([Job.run]), writing whichever telemetry files were
   requested. *)
let observed_run ?trace_json ?metrics_file ?spans_file ?record ?flight t ~mode
    exec =
  let with_trace_writer k =
    match trace_json with
    | None -> k None
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            k (Some (Obs.Jsonl.channel_writer oc)))
  in
  let j =
    with_trace_writer @@ fun trace_writer ->
    Job.run ?trace_writer ?record ?flight t ~mode exec
  in
  (match metrics_file with
  | Some file ->
      Obs.Jsonl.write_file file
        (Obs.Json.to_string_pretty (Obs.Metrics.to_json j.value.metrics))
  | None -> ());
  (match (spans_file, j.outcome.jr_spans) with
  | Some file, Some chrome ->
      Obs.Jsonl.write_file file (Obs.Json.to_string_pretty chrome)
  | _ -> ());
  j

let hardened_arg =
  Arg.(
    value & flag
    & info [ "hardened" ]
        ~doc:
          "Harden before running. This is already the default; the flag \
           exists so scripts can be explicit.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Stream the full trace-event log to $(docv) as JSON Lines (one \
           meta record, then one event object per line).")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the run's metric registry to $(docv) as JSON.")

let spans_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "Write recovery spans to $(docv) in Chrome trace-event format \
           (load in Perfetto or chrome://tracing).")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Record the scheduler-decision stream of the run into $(docv) \
           as a self-contained schedule log (replayable with the replay \
           subcommand, shrinkable with minimize).")

let flight_arg =
  Arg.(
    value & flag
    & info [ "flight" ]
        ~doc:
          "Attach the always-on flight recorder and dump a post-mortem \
           diagnostic bundle (FLIGHT_APP.bundle.json) after the run — the \
           decision tail, per-thread locksets, sync/recovery events, \
           episode spans and a regeneration recipe the bundle subcommand \
           replays and minimizes.")

let bundle_out_arg =
  Arg.(
    value & opt string "."
    & info [ "bundle-out" ] ~docv:"DIR"
        ~doc:"Directory for --flight diagnostic bundles (default: .).")

(* --record and --flight: save the schedule log and the flight bundle
   that rode on the displayed run, named after the target's label.
   [full] prints the bundle's preemption and event counts too. *)
let save_captures ~full ~record ~bundle_out (t : Job.target) (r : Conair.run)
    =
  (match (record, r.log) with
  | Some file, Some log ->
      Replay.Log.save log file;
      Format.printf "recorded: %s (%d decisions, %d preemptions)@." file
        (Array.length log.Replay.Log.decisions)
        (Array.length log.Replay.Log.preemptions)
  | _ -> ());
  match r.bundle with
  | None -> ()
  | Some b ->
      let b = Lazy.force b in
      let file =
        Filename.concat bundle_out
          ("flight_" ^ String.lowercase_ascii t.label ^ ".bundle.json")
      in
      Obs.Flight.save b file;
      let open Obs.Flight in
      if full then
        Format.printf
          "flight bundle: %s (%d of %d decisions retained, %d preemptions, \
           %d events)@."
          file (Array.length b.fb_tail) b.fb_tail_total
          (Array.length b.fb_tail_preemptions)
          (List.length b.fb_events)
      else
        Format.printf "flight bundle: %s (%d of %d decisions retained)@." file
          (Array.length b.fb_tail) b.fb_tail_total

let run_cmd =
  let no_harden_arg =
    Arg.(
      value & flag
      & info [ "no-harden" ] ~doc:"Run the original, unhardened program.")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Use fix mode (harden only the benchmark's known failing site) \
             instead of survival mode.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the recovery-event summary of the run (detections, \
                rollbacks, compensations).")
  in
  let run target exec hardened no_harden fix trace trace_json metrics_file
      spans_file record flight bundle_out =
    let@ (t : Job.target) = target in
    if hardened && no_harden then begin
      prerr_endline "--hardened and --no-harden are mutually exclusive";
      1
    end
    else
      let@ mode =
        Job.mode_of t
          (if no_harden then "none" else if fix then "fix" else "survival")
      in
      let j =
        observed_run ?trace_json ?metrics_file ?spans_file
          ~record:(record <> None) ~flight t ~mode exec
      in
      let r = j.value.run in
      save_captures ~full:true ~record ~bundle_out t r;
      Format.printf "outcome:  %a@." Outcome.pp r.outcome;
      List.iter (fun o -> Format.printf "output:   %s@." o) r.outputs;
      Format.printf "accepted: %b@." (t.inst.accept r.outputs);
      Format.printf "stats:    %a@." Stats.pp r.stats;
      if r.stats.rollbacks > 0 then begin
        Format.printf "recovery: %d virtual steps (longest episode)@."
          (Stats.max_recovery_time r.stats);
        Format.printf "@[<v 2>episodes:@ %a@]@." Stats.pp_episodes r.stats
      end;
      if trace then begin
        let sink = Trace.create () in
        List.iter (Trace.record sink) j.value.events;
        Format.printf "@[<v 2>recovery trace:@ %a@]@."
          Trace.pp_recovery_summary sink
      end;
      j.outcome.jr_exit
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a benchmark, hardened by default.")
    Term.(
      const run $ target_term $ exec_term $ hardened_arg $ no_harden_arg
      $ fix_arg $ trace_arg $ trace_json_arg $ metrics_file_arg
      $ spans_file_arg $ record_arg $ flight_arg $ bundle_out_arg)

let report_cmd =
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Use fix mode instead of survival mode before running.")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the metric registry in Prometheus text exposition \
             format instead of the JSON run report.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let run target exec fix prometheus out trace_json metrics_file spans_file =
    let@ t = target in
    let@ mode = Job.mode_of t (if fix then "fix" else "survival") in
    let j =
      observed_run ?trace_json ?metrics_file ?spans_file t ~mode exec
    in
    let contents =
      if prometheus then Obs.Metrics.to_prometheus j.value.metrics
      else Obs.Json.to_string_pretty j.outcome.jr_report
    in
    (match out with
    | None -> print_string contents
    | Some file -> Obs.Jsonl.write_file file contents);
    j.outcome.jr_exit
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Execute a benchmark under full observation and emit the \
          structured run report (or --prometheus metrics).")
    Term.(
      const run $ target_term $ exec_term $ fix_arg $ prometheus_arg
      $ out_arg $ trace_json_arg $ metrics_file_arg $ spans_file_arg)

let restart_cmd =
  let run target fuel =
    let@ (t : Job.target) = target in
    let r =
      Conair_baselines.Restart.run ~config:(config_at_fuel fuel)
        ~accept:t.inst.accept t.inst.program
    in
    Format.printf "outcome: %a@.attempts: %d@.total steps: %d (wasted %d)@."
      Outcome.pp r.outcome r.attempts r.total_steps r.wasted_steps;
    if Outcome.is_success r.outcome then 0 else 2
  in
  Cmd.v
    (Cmd.info "restart" ~doc:"Run the whole-program-restart baseline.")
    Term.(const run $ target_term $ fuel_arg)

let fullckpt_cmd =
  let interval_arg =
    Arg.(
      value & opt int 250
      & info [ "interval" ] ~doc:"Steps between whole-program checkpoints.")
  in
  let run target fuel interval =
    let@ (t : Job.target) = target in
    let config =
      {
        Conair_baselines.Full_checkpoint.default_config with
        machine = config_at_fuel fuel;
        interval;
      }
    in
    let r = Conair_baselines.Full_checkpoint.run ~config t.inst.program in
    Format.printf
      "outcome: %a@.snapshots: %d, restores: %d@.run steps: %d, checkpoint \
       overhead: %d, total: %d@.recovery: %d steps@."
      Outcome.pp r.outcome r.snapshots_taken r.restores r.run_steps
      r.checkpoint_overhead_steps r.total_steps r.recovery_steps;
    if Outcome.is_success r.outcome then 0 else 2
  in
  Cmd.v
    (Cmd.info "fullckpt"
       ~doc:"Run the whole-program-checkpoint/rollback baseline.")
    Term.(const run $ target_term $ fuel_arg $ interval_arg)

let file_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A Mir source file (.mir).")
  in
  let no_harden_arg =
    Arg.(
      value & flag
      & info [ "no-harden" ] ~doc:"Run the program as written, unhardened.")
  in
  let emit_arg =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Print the (possibly hardened) program instead of running it.")
  in
  let run file no_harden emit exec record flight bundle_out =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Job.resolve (Protocol.Source src) with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok t -> (
        (* captures are named after the file, not "source" *)
        let t =
          { t with label = Filename.(remove_extension (basename file)) }
        in
        let mode = if no_harden then None else Some Conair.Survival in
        if emit then begin
          let program =
            match mode with
            | None -> t.inst.program
            | Some m -> (Conair.harden_exn t.inst.program m).hardened.program
          in
          print_string (Conair.Ir.Emit.program program);
          0
        end
        else
          let j = observed_run ~record:(record <> None) ~flight t ~mode exec in
          let r = j.value.run in
          save_captures ~full:false ~record ~bundle_out t r;
          Format.printf "outcome: %a@." Outcome.pp r.outcome;
          List.iter (Format.printf "output:  %s@.") r.outputs;
          if mode <> None then Format.printf "stats:   %a@." Stats.pp r.stats;
          j.outcome.jr_exit)
  in
  Cmd.v
    (Cmd.info "file"
       ~doc:
         "Parse a Mir source file, harden it (survival mode) and run it; \
          --emit prints the program instead.")
    Term.(
      const run $ file_arg $ no_harden_arg $ emit_arg $ exec_term
      $ record_arg $ flight_arg $ bundle_out_arg)

let dot_cmd =
  let func_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "func" ]
          ~doc:
            "Render only this function (default: the function holding the \
             first recoverable site).")
  in
  let run target func =
    let@ (t : Job.target) = target in
    let@ h = Job.harden t Conair.Survival in
    let module A = Conair.Analysis in
    let recoverable (sp : A.Plan.site_plan) =
      sp.verdict = A.Optimize.Recoverable
      &&
      match func with
      | Some name -> Conair.Ir.Ident.Fname.name sp.site.func = name
      | None -> true
    in
    match List.find_opt recoverable h.value.plan.site_plans with
    | None ->
        prerr_endline "no recoverable site to render";
        1
    | Some sp ->
        print_string (A.Viz.site_to_dot t.inst.program sp.site);
        0
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Print a Graphviz rendering of a failure site's function with its \
          idempotent region highlighted.")
    Term.(const run $ target_term $ func_arg)

let profile_cmd =
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~doc:"Profiling runs (with --sites only).")
  in
  let sites_arg =
    Arg.(
      value & flag
      & info [ "sites" ]
          ~doc:
            "ConSeq-style per-site execution counts over clean runs of the \
             original program instead of the cost profile.")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Use fix mode instead of survival mode before profiling.")
  in
  let collapsed_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "collapsed" ] ~docv:"FILE"
          ~doc:
            "Write the total cost profile as collapsed-stack flamegraph \
             lines to $(docv) (feed to flamegraph.pl or speedscope).")
  in
  let wasted_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wasted" ] ~docv:"FILE"
          ~doc:
            "Write only the rolled-back (wasted) cost as collapsed-stack \
             lines to $(docv) — a flamegraph of recovery waste.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write recovery spans plus the stacked cost counter track to \
             $(docv) in Chrome trace-event format.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full profile (totals, per-context tables, \
                per-site costs, samples) to $(docv) as JSON.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Context rows to print (0 for all).")
  in
  let run target (exec : Protocol.exec) sites fix runs collapsed wasted chrome
      json top =
    let@ (t : Job.target) = target in
    let inst = t.inst in
    if sites then begin
      let config = config_at_fuel exec.fuel in
      let profiles = Conair.profile_sites ~config ~runs inst.program in
      Printf.printf "%-8s %-12s %10s  %s\n" "site" "kind" "executions"
        "message";
      List.iter
        (fun (p : Conair.site_profile) ->
          Printf.printf "%-8d %-12s %10d  %s\n" p.site.site_id
            (Format.asprintf "%a" Conair.Ir.Instr.pp_failure_kind
               p.site.kind)
            p.executions p.site.msg)
        profiles;
      0
    end
    else begin
      let config = Job.config_of_exec exec in
      let mode =
        if fix then Conair.Fix inst.fix_site_iids else Conair.Survival
      in
      let h = Conair.harden_exn inst.program mode in
      let prof = Obs.Prof.create () in
      let sink = Trace.create () in
      let outcome =
        Engine.run
          (Engine.create ~config
             ~meta:(Machine.meta_of_harden h.hardened)
             ~hooks:(Hooks.bundle ~trace:sink ~profile:(Obs.Prof.probe prof) ())
             exec.engine h.hardened.program)
      in
      Obs.Prof.finalize prof;
      Format.printf "outcome:    %a@." Outcome.pp outcome;
      Printf.printf "useful:     %d steps\n"
        (Obs.Prof.useful_steps prof);
      Printf.printf "checkpoint: %d steps\n"
        (Obs.Prof.checkpoint_steps prof);
      Printf.printf "wasted:     %d steps (ratio %.4f)\n"
        (Obs.Prof.wasted_steps prof)
        (Obs.Prof.wasted_ratio prof);
      Printf.printf "idle:       %d steps\n" (Obs.Prof.idle_steps prof);
      (match Obs.Prof.site_costs prof with
      | [] -> ()
      | costs ->
          Printf.printf "%-8s %10s %10s\n" "site" "rollbacks" "wasted";
          List.iter
            (fun (c : Obs.Prof.site_cost) ->
              Printf.printf "%-8d %10d %10d\n" c.sc_site c.sc_rollbacks
                c.sc_wasted)
            costs);
      let rows = Obs.Prof.rows prof in
      let rows =
        if top <= 0 then rows
        else List.filteri (fun i _ -> i < top) rows
      in
      Printf.printf "%10s %10s %10s  %s\n" "useful" "ckpt" "wasted"
        "context";
      List.iter
        (fun (r : Obs.Prof.row) ->
          Printf.printf "%10d %10d %10d  %s\n" r.r_useful r.r_ckpt
            r.r_wasted r.r_ctx)
        rows;
      let write_collapsed file kind =
        Obs.Jsonl.write_file file
          (String.concat "\n" (Obs.Prof.to_collapsed prof kind) ^ "\n")
      in
      (match collapsed with
      | Some file -> write_collapsed file Obs.Prof.Total
      | None -> ());
      (match wasted with
      | Some file -> write_collapsed file Obs.Prof.Wasted
      | None -> ());
      (match chrome with
      | Some file ->
          let events = Trace.events sink in
          let spans = Obs.Span.of_events events in
          Obs.Jsonl.write_file file
            (Obs.Json.to_string_pretty
               (Obs.Span.to_chrome ~events
                  ~counters:(Obs.Prof.counter_events prof)
                  spans))
      | None -> ());
      (match json with
      | Some file ->
          Obs.Jsonl.write_file file
            (Obs.Json.to_string_pretty (Obs.Prof.to_json prof))
      | None -> ());
      if Outcome.is_success outcome then 0 else 2
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the deterministic cost profiler: per-context \
          useful/checkpoint/wasted attribution, per-site rollback waste, \
          flamegraph and Chrome-trace exports (--sites for the ConSeq-style \
          execution-count profile).")
    Term.(
      const run $ target_term $ exec_term $ sites_arg $ fix_arg $ runs_arg
      $ collapsed_arg $ wasted_arg $ chrome_arg $ json_arg $ top_arg)

let overhead_cmd =
  let apps_arg =
    Arg.(
      value & opt_all string []
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Measure only this application (repeatable; default: the whole \
             catalog).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_overhead.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output JSON document.")
  in
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ]
          ~doc:"Random-schedule runs per recovery verdict (on top of the \
                deterministic run).")
  in
  let case_of_spec (spec : Spec.t) : Obs.Overhead.case =
    let inst variant oracle =
      let i = spec.Spec.make ~variant ~oracle in
      {
        Obs.Overhead.program = i.Spec.program;
        fix_iids = i.Spec.fix_site_iids;
        accept = i.Spec.accept;
      }
    in
    let needs = spec.Spec.info.needs_oracle in
    {
      Obs.Overhead.name = spec.Spec.info.name;
      needs_oracle = needs;
      buggy_fix = inst Spec.Buggy true;
      buggy_survival = inst Spec.Buggy needs;
      clean_fix = inst Spec.Clean true;
      clean_survival = inst Spec.Clean needs;
    }
  in
  let run apps out runs fuel =
    let specs =
      match apps with
      | [] -> Ok Registry.all
      | names ->
          List.fold_right
            (fun name acc ->
              match (acc, Job.find_app name) with
              | Error e, _ -> Error e
              | _, Error e -> Error e
              | Ok specs, Ok s -> Ok (s :: specs))
            names (Ok [])
    in
    match specs with
    | Error e -> prerr_endline e; 1
    | Ok specs ->
        let config = config_at_fuel fuel in
        (* which detector lenses flag the buggy program — closed over
           here because Overhead sits below the detector in the library
           order *)
        let detect (c : Obs.Overhead.case) =
          let h =
            Conair.harden_exn c.Obs.Overhead.buggy_survival.Obs.Overhead.program
              Conair.Survival
          in
          let _, rep = Conair.run_detected ~config (Conair.Hardened h) in
          (if rep.Conair.Race.Report.races <> [] then [ "hb" ] else [])
          @ (if rep.Conair.Race.Report.warnings <> [] then [ "lockset" ]
             else [])
          @
          if
            List.exists
              (fun cy -> cy.Conair.Race.Report.cy_actual)
              rep.Conair.Race.Report.cycles
          then [ "deadlock" ]
          else []
        in
        let rows =
          Obs.Overhead.measure_all ~config ~random_runs:runs ~detect
            (List.map case_of_spec specs)
        in
        Obs.Jsonl.write_file out
          (Obs.Json.to_string_pretty (Obs.Overhead.to_json rows));
        List.iter print_endline (Obs.Overhead.table_rows rows);
        let s = Obs.Overhead.summary rows in
        Printf.printf
          "recovery: fix %d/%d, survival %d/%d; max overhead: fix %.2f%%, \
           survival %.2f%%\n"
          s.s_fix_recovered s.s_cases s.s_surv_recovered s.s_cases
          s.s_max_fix_overhead_pct s.s_max_surv_overhead_pct;
        Printf.printf "wrote %s\n" out;
        if s.s_fix_recovered = s.s_cases && s.s_surv_recovered = s.s_cases
        then 0
        else 2
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Run the paper-style overhead harness over the benchmark catalog \
          and regenerate the Table 3 numbers (BENCH_overhead.json).")
    Term.(const run $ apps_arg $ out_arg $ runs_arg $ fuel_arg)

let races_cmd =
  let app_opt_arg =
    let doc = "Benchmark application name (or use --file)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Detect on a Mir source file instead of a benchmark.")
  in
  let hb_arg =
    Arg.(
      value & flag
      & info [ "hb" ]
          ~doc:
            "Enable only the happens-before lens (combine with --lockset \
             and --deadlock; default when no lens flag is given: all \
             three).")
  in
  let lockset_arg =
    Arg.(
      value & flag
      & info [ "lockset" ] ~doc:"Enable only the Eraser lockset lens.")
  in
  let deadlock_arg =
    Arg.(
      value & flag
      & info [ "deadlock" ]
          ~doc:"Enable only the lock-order deadlock lens.")
  in
  let original_arg =
    Arg.(
      value & flag
      & info [ "original" ]
          ~doc:
            "Detect on the original program instead of the hardened one. \
             Fail-stop bugs kill the run before the conflicting access \
             executes, so hardened (the default) usually sees more.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full race report to $(docv) as JSON.")
  in
  let run app file variant oracle exec original hb lockset deadlock json =
    let@ t =
      match (app, file) with
      | Some app, None -> Job.resolve (Protocol.Bench { app; variant; oracle })
      | None, Some f ->
          let src = In_channel.with_open_text f In_channel.input_all in
          Result.map_error (( ^ ) (f ^ ": ")) (Job.resolve (Protocol.Source src))
      | _ -> Error "give exactly one of APP or --file"
    in
    let options =
      if hb || lockset || deadlock then
        { Conair.Race.Detect.hb; lockset; deadlock }
      else Conair.Race.Detect.all
    in
    let d = Job.detect ~options t ~original exec in
    let r, report = d.value in
    Format.printf "outcome: %a@." Outcome.pp r.outcome;
    Format.printf "%a" Conair.Race.Report.pp report;
    let actual, potential =
      List.partition
        (fun c -> c.Conair.Race.Report.cy_actual)
        report.Conair.Race.Report.cycles
    in
    Printf.printf
      "races: %d, lockset warnings: %d, deadlock cycles: %d actual, %d \
       potential\n"
      (List.length report.Conair.Race.Report.races)
      (List.length report.Conair.Race.Report.warnings)
      (List.length actual) (List.length potential);
    (match json with
    | Some out ->
        Obs.Jsonl.write_file out
          (Obs.Json.to_string_pretty d.outcome.jr_report)
    | None -> ());
    d.outcome.jr_exit
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Run the dynamic race/deadlock detector (happens-before + \
          lockset + lock-order lenses) over a benchmark or Mir file and \
          report every finding. Exits 3 when races or actual deadlocks \
          were found.")
    Term.(
      const run $ app_opt_arg $ file_arg $ variant_arg $ oracle_arg
      $ exec_term $ original_arg $ hb_arg $ lockset_arg $ deadlock_arg
      $ json_arg)

(* --- schedule record-and-replay ----------------------------------- *)

let log_file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"A recorded schedule log (.sched.jsonl, from run --record, \
              fuzz --record or minimize --out).")

(* Rebuild the program from the registry when an APP name is given; the
   log's recorded variant/oracle pick the instance, and the replay layer
   verifies the rebuilt program against the recorded MD5. *)
let program_for_log (log : Replay.Log.t) = function
  | None -> Ok None
  | Some app ->
      let id = log.Replay.Log.ident in
      Job.resolve
        (Protocol.Bench
           {
             app;
             variant = id.Replay.Log.id_variant;
             oracle = id.Replay.Log.id_oracle;
           })
      |> Result.map (fun (t : Job.target) -> Some t.inst.program)

let pp_divergence (d : Replay.Driver.divergence) =
  Printf.eprintf
    "diverged at decision %d (step %d): %s\n  recorded: %s\n  eligible: [%s]\n"
    d.Replay.Driver.dv_decision d.Replay.Driver.dv_step
    d.Replay.Driver.dv_reason
    (match d.Replay.Driver.dv_expected with
    | Some tid -> "tid " ^ string_of_int tid
    | None -> "end of log")
    (String.concat "; " (List.map string_of_int d.Replay.Driver.dv_actual))

let parse_range s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad range %S (expected A:B)" s)
  | Some i -> (
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <= b -> Ok (a, b)
      | _ -> Error (Printf.sprintf "bad range %S (expected A:B)" s))

let show_state t ~json step =
  match Replay.Inspect.state_at t step with
  | Error e ->
      Printf.printf "step %d: %s\n" step e;
      false
  | Ok s ->
      if json then print_endline (Obs.Json.to_string s)
      else print_string (Replay.Inspect.render s);
      true

let interactive_loop t ~json =
  let final = Replay.Inspect.final_step t in
  let cur = ref 0 in
  print_endline
    "time-travel inspector — commands: N (go to step N), n(ext), p(rev), \
     end, q(uit)";
  ignore (show_state t ~json !cur);
  try
    while true do
      Printf.printf "step %d/%d> %!" !cur final;
      (match String.trim (input_line stdin) with
      | "q" | "quit" | "exit" -> raise Exit
      | "" | "n" | "next" -> cur := min final (!cur + 1)
      | "p" | "prev" -> cur := max 0 (!cur - 1)
      | "end" -> cur := final
      | s -> (
          match int_of_string_opt s with
          | Some n when n >= 0 && n <= final -> cur := n
          | _ ->
              Printf.printf
                "commands: N (0..%d), n(ext), p(rev), end, q(uit)\n" final));
      ignore (show_state t ~json !cur)
    done;
    0
  with Exit | End_of_file -> 0

let replay_cmd =
  let app_opt_arg =
    let doc =
      "Rebuild the program from the registry (verified against the log's \
       recorded MD5) instead of parsing the log's embedded text."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"N"
          ~doc:"Print the machine state before virtual-time step N.")
  in
  let range_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "range" ] ~docv:"A:B"
          ~doc:"Print the machine state at every step from A to B.")
  in
  let interactive_arg =
    Arg.(
      value & flag
      & info [ "interactive"; "i" ]
          ~doc:"Step through the run interactively (reads commands from \
                stdin).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print inspected states as JSON instead of rendered text.")
  in
  let run logfile app engine at range interactive json =
    match Replay.Log.load logfile with
    | Error e ->
        Printf.eprintf "%s: %s\n" logfile e;
        1
    | Ok log -> (
        match program_for_log log app with
        | Error e -> prerr_endline e; 1
        | Ok program -> (
            let inspecting =
              at <> None || range <> None || interactive
            in
            (* validate the replay first, so divergence is reported the
               same way whether or not we go on to inspect *)
            match Conair.replay ~engine ?program log with
            | Error (Replay.Driver.Diverged d) -> pp_divergence d; 4
            | Error e ->
                prerr_endline (Replay.Driver.error_to_string e);
                1
            | Ok b -> (
                match Replay.Driver.check log b with
                | Error e ->
                    Printf.eprintf "replay mismatch: %s\n" e;
                    4
                | Ok () ->
                    if not inspecting then begin
                      Format.printf "outcome:  %a@." Outcome.pp
                        b.Replay.Driver.rb_outcome;
                      List.iter
                        (fun o -> Format.printf "output:   %s@." o)
                        b.Replay.Driver.rb_outputs;
                      Format.printf
                        "faithful replay: %d decisions, %d steps, %d \
                         rollbacks (%s engine)@."
                        (Array.length log.Replay.Log.decisions)
                        b.Replay.Driver.rb_steps
                        b.Replay.Driver.rb_stats.Stats.rollbacks
                        (Replay.Driver.engine_name engine);
                      0
                    end
                    else
                      (* the inspector replays on the fast engine; the
                         validation above already proved fidelity *)
                      match Replay.Inspect.create ?program log with
                      | Error e -> prerr_endline e; 1
                      | Ok t ->
                          if interactive then interactive_loop t ~json
                          else
                            let steps =
                              match (at, range) with
                              | Some n, None -> Ok [ n ]
                              | None, Some r -> (
                                  match parse_range r with
                                  | Error e -> Error e
                                  | Ok (a, b) ->
                                      Ok (List.init (b - a + 1) (fun i -> a + i)))
                              | Some n, Some _ ->
                                  prerr_endline
                                    "--at and --range are mutually \
                                     exclusive; using --at";
                                  Ok [ n ]
                              | None, None -> Ok []
                            in
                            (match steps with
                            | Error e -> prerr_endline e; 1
                            | Ok steps ->
                                if
                                  List.for_all
                                    (fun n -> show_state t ~json n)
                                    steps
                                then 0
                                else 1))))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded schedule log bit-for-bit, with time-travel \
          inspection of any step (--at, --range, --interactive). Exits 4 \
          when the execution diverges from the recording, 0 on a faithful \
          replay — even of a failing run.")
    Term.(
      const run $ log_file_arg $ app_opt_arg $ engine_arg $ at_arg
      $ range_arg $ interactive_arg $ json_arg)

(* Print a minimization's explanation, save its log to [out] and its
   report to [json]. *)
let write_minimized ~out ~json (j : Replay.Minimize.t Job.typed) =
  print_string (Replay.Minimize.render j.value);
  (match out with
  | Some file ->
      Replay.Log.save j.value.mn_log file;
      Printf.printf "minimized log: %s\n" file
  | None -> ());
  (match json with
  | Some file ->
      Obs.Jsonl.write_file file (Obs.Json.to_string_pretty j.outcome.jr_report);
      Printf.printf "explanation: %s\n" file
  | None -> ());
  j.outcome.jr_exit

let minimize_cmd =
  let app_opt_arg =
    let doc =
      "Rebuild the program from the registry (verified against the log's \
       recorded MD5) instead of parsing the log's embedded text."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the minimized schedule as a replayable log to $(docv).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the interleaving explanation (switch-by-switch, with \
                detector findings) to $(docv) as JSON.")
  in
  let max_tests_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-tests" ]
          ~doc:"Budget of candidate executions for the ddmin search.")
  in
  let no_detect_arg =
    Arg.(
      value & flag
      & info [ "no-detect" ]
          ~doc:"Skip the race/deadlock detector pass over the minimized \
                schedule.")
  in
  let run logfile app out json max_tests no_detect =
    match Replay.Log.load logfile with
    | Error e ->
        Printf.eprintf "%s: %s\n" logfile e;
        1
    | Ok log ->
        let@ program = program_for_log log app in
        let@ m = Job.minimize ?program ~max_tests ~detect:(not no_detect) log in
        write_minimized ~out ~json m
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
         "Shrink a failing recorded schedule to a locally minimal set of \
          preemptive context switches that still reproduces the failure \
          (delta debugging over preemption points), and explain each \
          surviving switch.")
    Term.(
      const run $ log_file_arg $ app_opt_arg $ out_arg $ json_arg
      $ max_tests_arg $ no_detect_arg)

(* --- flight diagnostic bundles ------------------------------------- *)

let bundle_pos_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "A flight diagnostic bundle (.bundle.json, from run --flight, \
           conair_fuzz findings or conair_serve captures).")

let bundle_show_cmd =
  let run file =
    match Obs.Flight.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok b ->
        let open Obs.Flight in
        Printf.printf "app:      %s (variant %s, oracle %b, mode %s)\n"
          b.fb_app b.fb_variant b.fb_oracle b.fb_mode;
        Printf.printf "engine:   %s\n" b.fb_engine;
        Printf.printf "reason:   %s\n" b.fb_reason;
        Printf.printf "program:  md5 %s%s\n" b.fb_program_md5
          (match b.fb_program_text with
          | Some _ -> ""
          | None -> " (text not embedded)");
        Format.printf "outcome:  %a@." Outcome.pp b.fb_outcome;
        Printf.printf "trailer:  %d steps, %d instrs, %d rollbacks\n"
          b.fb_steps b.fb_instrs b.fb_rollbacks;
        Printf.printf
          "tail:     decisions %d..%d of %d (%d retained, %d preemptions)\n"
          b.fb_tail_first (b.fb_tail_total - 1) b.fb_tail_total
          (Array.length b.fb_tail)
          (Array.length b.fb_tail_preemptions);
        List.iter
          (fun (tid, status, locks) ->
            Printf.printf "thread %d: %s%s\n" tid status
              (match locks with
              | [] -> ""
              | ls -> " holding [" ^ String.concat "; " ls ^ "]"))
          b.fb_threads;
        (match b.fb_episodes with
        | [] -> ()
        | eps ->
            Printf.printf "episodes:\n";
            List.iter
              (fun ep ->
                Printf.printf
                  "  site %d tid %d: steps %d..%d (%d retries)\n" ep.be_site
                  ep.be_tid ep.be_start ep.be_end ep.be_retries)
              eps);
        (match b.fb_events with
        | [] -> ()
        | evs ->
            Printf.printf "events (%d retained):\n" (List.length evs);
            List.iter
              (fun e ->
                Printf.printf "  step %-8d tid %-3d %-10s%s%s\n" e.bv_step
                  e.bv_tid e.bv_kind
                  (if e.bv_detail = "" then "" else " " ^ e.bv_detail)
                  (if e.bv_arg < 0 then ""
                   else Printf.sprintf " (arg %d)" e.bv_arg))
              evs);
        0
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a human-readable summary of a diagnostic bundle.")
    Term.(const run $ bundle_pos_arg)

let bundle_replay_cmd =
  let run file =
    match Obs.Flight.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok b ->
        (* regenerate on every engine; the recover step itself verifies
           the re-run against the recorded tail, then a strict replay of
           the regenerated log closes the loop *)
        let verify engine =
          match Replay.Bundle.recover_log ~engine b with
          | Error e ->
              Printf.eprintf "%s engine: %s\n" (Engine.name engine) e;
              Error 4
          | Ok log -> (
              match Conair.replay ~engine log with
              | Error (Replay.Driver.Diverged d) ->
                  Printf.eprintf "%s engine: " (Engine.name engine);
                  pp_divergence d;
                  Error 4
              | Error e ->
                  prerr_endline (Replay.Driver.error_to_string e);
                  Error 1
              | Ok rb -> (
                  match Replay.Driver.check log rb with
                  | Error e ->
                      Printf.eprintf "%s engine: replay mismatch: %s\n"
                        (Engine.name engine) e;
                      Error 4
                  | Ok () -> Ok log))
        in
        let rec go logs = function
          | [] -> Ok (List.rev logs)
          | e :: rest -> (
              match verify e with
              | Error code -> Error code
              | Ok log -> go (log :: logs) rest)
        in
        (match go [] Engine.all with
        | Error code -> code
        | Ok logs ->
            (* the regenerated decision streams must agree bit-for-bit
               across engines — the cross-engine identity the bundle
               format promises *)
            let reference = List.hd logs in
            let agree =
              List.for_all
                (fun (l : Replay.Log.t) ->
                  l.Replay.Log.decisions
                  = reference.Replay.Log.decisions
                  && l.Replay.Log.preemptions
                     = reference.Replay.Log.preemptions)
                logs
            in
            if not agree then begin
              prerr_endline
                "engines regenerated different decision streams";
              4
            end
            else begin
              Printf.printf
                "faithful on all engines: %d decisions regenerated (tail \
                 %d..%d verified), %d preemptions\n"
                (Array.length reference.Replay.Log.decisions)
                b.Obs.Flight.fb_tail_first
                (b.Obs.Flight.fb_tail_total - 1)
                (Array.length reference.Replay.Log.preemptions);
              0
            end)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Regenerate a bundle's full schedule by deterministic re-run, \
          verify the re-run against the recorded tail and strict-replay \
          the regenerated log — on all three engines. Exits 4 on any \
          divergence.")
    Term.(const run $ bundle_pos_arg)

let bundle_minimize_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the minimized schedule as a replayable log to $(docv).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the interleaving explanation to $(docv) as JSON.")
  in
  let max_tests_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-tests" ]
          ~doc:"Budget of candidate executions for the ddmin search.")
  in
  let run file out json max_tests =
    match Obs.Flight.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok b ->
        let@ log = Replay.Bundle.recover_log b in
        let@ m = Job.minimize ~max_tests ~detect:true log in
        write_minimized ~out ~json m
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
         "Regenerate a bundle's full schedule by deterministic re-run, \
          then shrink it to a locally minimal set of preemptive context \
          switches that still reproduces the failure — the same search \
          the minimize subcommand runs on a full recording.")
    Term.(const run $ bundle_pos_arg $ out_arg $ json_arg $ max_tests_arg)

let bundle_cmd =
  Cmd.group
    (Cmd.info "bundle"
       ~doc:
         "Inspect, replay and minimize flight-recorder diagnostic bundles \
          (.bundle.json).")
    [ bundle_show_cmd; bundle_replay_cmd; bundle_minimize_cmd ]

let aggregate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A JSONL run log (e.g. conair_fuzz --jsonl output).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the aggregate as JSON to $(docv).")
  in
  let run file json =
    let lines =
      In_channel.with_open_text file In_channel.input_lines
    in
    match Obs.Aggregate.of_lines lines with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok agg ->
        List.iter print_endline (Obs.Aggregate.render agg);
        (match json with
        | Some out ->
            Obs.Jsonl.write_file out
              (Obs.Json.to_string_pretty (Obs.Aggregate.to_json agg))
        | None -> ());
        0
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:
         "Fold a JSONL stream of per-run records into percentile summaries \
          of recovery cost (p50/p95/max steps and retries, per-site waste).")
    Term.(const run $ file_arg $ json_arg)

(* --- automated fix synthesis --------------------------------------- *)

let fix_cmd =
  let module Fix = Conair.Fix in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the ranked fix report to $(docv) as JSON.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write each surviving candidate's patched Mir program to \
             $(docv)/CANDIDATE.mir.")
  in
  let max_candidates_arg =
    Arg.(
      value & opt int 8
      & info [ "max-candidates" ] ~docv:"N"
          ~doc:"Cap on synthesized candidate patches.")
  in
  let sweep_seeds_arg =
    Arg.(
      value & opt int 100
      & info [ "sweep-seeds" ] ~docv:"N"
          ~doc:
            "Random seeds per validation sweep (the regression and \
             deadlock-freedom gates each candidate must pass).")
  in
  let search_seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "search-seeds" ] ~docv:"N"
          ~doc:"Random seeds tried when hunting a failing schedule.")
  in
  let run target exec json out max_candidates sweep_seeds search_seeds =
    let@ t = target in
    let { Job.value = report; outcome } =
      Job.fix t ~max_candidates ~sweep_seeds ~search_seeds exec
    in
    print_string (Fix.Pipeline.render report);
    (match json with
    | Some file ->
        Obs.Jsonl.write_file file
          (Obs.Json.to_string_pretty outcome.jr_report)
    | None -> ());
    (match out with
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (c : Fix.Pipeline.candidate) ->
            if c.Fix.Pipeline.c_survived then begin
              let id = c.Fix.Pipeline.c_patch.Fix.Patch.p_id in
              let name =
                String.map
                  (fun ch ->
                    match ch with
                    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' ->
                        ch
                    | _ -> '_')
                  id
              in
              let file = Filename.concat dir (name ^ ".mir") in
              Obs.Jsonl.write_file file
                (Conair.Ir.Emit.program
                   c.Fix.Pipeline.c_patch.Fix.Patch.p_program);
              Printf.printf "patched program: %s\n" file
            end)
          report.Fix.Pipeline.fx_candidates
    | None -> ());
    outcome.jr_exit
  in
  Cmd.v
    (Cmd.info "fix"
       ~doc:
         "Close the detect-explain-repair loop: detect races/deadlocks, \
          record and minimize a failing schedule, synthesize candidate \
          patches (lock insertion, order enforcement, lock fusion), \
          validate each against three gates (directed replay of the \
          failing schedule, a multi-seed regression sweep, \
          deadlock-freedom) and rank survivors by measured overhead. \
          Exits 0 when at least one candidate survives all gates, 2 \
          otherwise.")
    Term.(
      const run $ target_term $ exec_term $ json_arg $ out_arg
      $ max_candidates_arg $ sweep_seeds_arg $ search_seeds_arg)

let main_cmd =
  let doc =
    "ConAir: featherweight concurrency-bug recovery via single-threaded \
     idempotent execution (ASPLOS 2013), on the Mir IR substrate."
  in
  Cmd.group (Cmd.info "conair" ~version:"1.0.0" ~doc)
    [ list_cmd; show_cmd; analyze_cmd; harden_cmd; run_cmd; report_cmd;
      restart_cmd; fullckpt_cmd; file_cmd; dot_cmd; profile_cmd;
      overhead_cmd; races_cmd; replay_cmd; minimize_cmd; bundle_cmd;
      aggregate_cmd; fix_cmd ]

let () = exit (Cmd.eval' main_cmd)
