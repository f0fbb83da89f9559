(* Job execution: one function per job kind, each deliberately the
   same code path as the corresponding CLI subcommand so that a served
   report is byte-identical to the CLI's output for the same inputs:

   - run      = [Conair.run_report_of]   (conair_cli run / report)
   - harden   = [Conair.harden_exn]      (conair_cli harden)
   - detect   = [Conair.run_detected] / [detect_hardened]  (conair_cli races)
   - minimize = [Conair.minimize]        (conair_cli minimize)
   - fuzz     = hardened seed sweep folding fuzz-style run records into
                an [Obs.Aggregate] (conair_cli aggregate over a fuzz log)
   - fix      = [Conair.Fix.Pipeline.run]  (conair_cli fix)

   Exit codes mirror the CLI too (0 ok, 2 failed run, 3 findings), so
   a client can script against the daemon exactly as against the CLI. *)

module Json = Conair_obs.Json
module Jsonl = Conair_obs.Jsonl
module Span = Conair_obs.Span
module Aggregate = Conair_obs.Aggregate
module Outcome = Conair_runtime.Outcome
module Machine = Conair_runtime.Machine
module Engine = Conair_runtime.Engine
module Sched = Conair_runtime.Sched
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

type outcome = {
  jr_status : string;  (** "ok" | "error" *)
  jr_exit : int;  (** the CLI-equivalent exit code *)
  jr_report : Json.t;  (** the job's structured result document *)
  jr_record : Json.t option;
      (** fuzz-style run record for cross-job aggregation *)
  jr_spans : Json.t option;  (** Chrome trace doc (run jobs) *)
  jr_bundle : Json.t option;
      (** flight-recorder diagnostic bundle (failed run jobs) *)
}

let failed ?(exit = 1) msg =
  {
    jr_status = "error";
    jr_exit = exit;
    jr_report =
      Json.Obj
        [ ("type", Json.String "job_error"); ("message", Json.String msg) ];
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

let engine_of_name name =
  List.find (fun e -> Engine.name e = name) Engine.all

let config_of_exec (e : Protocol.exec) =
  {
    Machine.default_config with
    fuel = e.fuel;
    max_retries = e.max_retries;
    policy =
      (match e.seed with
      | None -> Sched.Round_robin
      | Some s -> Sched.Random s);
  }

(* Resolve a job target to (label, variant name, instance). Inline
   source programs get the trivial instance (no fix sites, accept-all),
   labelled "source" in telemetry. *)
let resolve (target : Protocol.target) =
  match target with
  | Protocol.Bench { app; variant; oracle } -> (
      match Registry.find app with
      | None ->
          Error
            (Printf.sprintf "unknown application %S; try: %s" app
               (String.concat ", " Registry.names))
      | Some spec ->
          let v = if variant = "clean" then Spec.Clean else Spec.Buggy in
          let oracle = oracle || spec.Spec.info.needs_oracle in
          Ok (app, variant, spec.Spec.make ~variant:v ~oracle))
  | Protocol.Source src -> (
      match Conair.Ir.Parse.program src with
      | Error e ->
          Error (Format.asprintf "bad program: %a" Conair.Ir.Parse.pp_error e)
      | Ok p -> Ok ("source", "buggy", Spec.instance p))

let mode_of ~(inst : Spec.instance) = function
  | "none" -> Ok None
  | "survival" -> Ok (Some Conair.Survival)
  | "fix" ->
      if inst.Spec.fix_site_iids = [] then
        Error "fix mode needs a benchmark with known failing sites"
      else Ok (Some (Conair.Fix inst.Spec.fix_site_iids))
  | m -> Error (Printf.sprintf "unknown mode %S" m)

(* --- the job kinds ------------------------------------------------- *)

let exec_run ~telemetry ~target ~mode ~(exec : Protocol.exec) =
  match resolve target with
  | Error e -> failed e
  | Ok (app, variant, inst) -> (
      match mode_of ~inst mode with
      | Error e -> failed e
      | Ok mode ->
          let config = config_of_exec exec in
          let engine = engine_of_name exec.engine in
          (* identical to the CLI: the meta line never names the engine *)
          let meta_info =
            Jsonl.run_meta ~variant ?seed:exec.seed app
          in
          let writer =
            {
              Jsonl.write =
                (fun line ->
                  match Json.of_string line with
                  | Ok j -> telemetry j
                  | Error _ -> ());
            }
          in
          let rr =
            Conair.run_report_of ~config ~engine ~meta_info
              ~trace_writer:writer ~mode inst.Spec.program
          in
          let seed = Option.value ~default:0 exec.seed in
          (* A failed run additionally yields a flight-recorder bundle: a
             deterministic capture re-run under the job's exact config and
             engine, the same post-mortem the CLI dumps under [--flight].
             The bundle is retained by telemetry for the [bundle] fetch
             op, so a client can pull the post-mortem after the fact. *)
          let bundle =
            if Outcome.is_success rr.Conair.run.outcome then None
            else
              let mode_name =
                match mode with
                | None -> "none"
                | Some Conair.Survival -> "survival"
                | Some (Conair.Fix _) -> "fix"
              in
              let ident =
                Conair.Replay.Log.ident ~variant ~mode:mode_name app
              in
              let _, b =
                match mode with
                | None ->
                    Conair.run_flight ~config ~engine ~reason:"failure"
                      ~ident inst.Spec.program
                | Some m ->
                    let h = Conair.harden_exn inst.Spec.program m in
                    Conair.run_flight ~config ~engine
                      ~meta:(Machine.meta_of_harden h.Conair.hardened)
                      ~reason:"failure" ~ident
                      h.Conair.hardened.Conair_transform.Harden.program
              in
              Some (Conair.Obs.Flight.to_json b)
          in
          {
            jr_status = "ok";
            jr_exit =
              (if Outcome.is_success rr.Conair.run.outcome then 0 else 2);
            jr_report = rr.Conair.report;
            jr_record =
              (* the fuzzer's run record, so a tenant's job history and
                 a fuzz log aggregate identically *)
              Some
                (Aggregate.run_record ~case:app ~seed
                   ~outcome:rr.Conair.run.outcome rr.Conair.run.stats);
            jr_spans =
              Some (Span.to_chrome ~events:rr.Conair.events rr.Conair.spans);
            jr_bundle = bundle;
          })

let exec_harden ~target ~mode =
  match resolve target with
  | Error e -> failed e
  | Ok (app, _variant, inst) -> (
      match mode_of ~inst mode with
      | Error e -> failed e
      | Ok None -> failed "harden job needs mode survival or fix"
      | Ok (Some mode) -> (
          match Conair.harden inst.Spec.program mode with
          | Error e -> failed e
          | Ok h ->
              {
                jr_status = "ok";
                jr_exit = 0;
                jr_report =
                  Json.Obj
                    [
                      ("type", Json.String "harden_report");
                      ("app", Json.String app);
                      ( "sites",
                        Json.Int (List.length h.Conair.plan.site_plans) );
                      ( "program",
                        Json.String
                          (Format.asprintf "%a@." Conair.Ir.Program.pp
                             h.Conair.hardened.program) );
                    ];
                jr_record = None;
                jr_spans = None;
                jr_bundle = None;
              }))

let exec_detect ~target ~original ~(exec : Protocol.exec) =
  match resolve target with
  | Error e -> failed e
  | Ok (_app, _variant, inst) ->
      let config = config_of_exec exec in
      let engine = engine_of_name exec.engine in
      let _r, report =
        if original then
          Conair.run_detected ~config ~engine inst.Spec.program
        else
          Conair.detect_hardened ~config ~engine
            (Conair.harden_exn inst.Spec.program Conair.Survival)
      in
      let actual =
        List.filter
          (fun c -> c.Conair.Race.Report.cy_actual)
          report.Conair.Race.Report.cycles
      in
      {
        jr_status = "ok";
        jr_exit =
          (* exit 3 on findings, as the races subcommand does *)
          (if report.Conair.Race.Report.races <> [] || actual <> [] then 3
           else 0);
        jr_report = Conair.Race.Report.to_json report;
        jr_record = None;
        jr_spans = None;
        jr_bundle = None;
      }

let exec_minimize ~log ~max_tests ~detect =
  match Conair.Replay.Log.of_lines log with
  | Error e -> failed (Printf.sprintf "bad schedule log: %s" e)
  | Ok slog -> (
      match Conair.minimize ~max_tests ~detect slog with
      | Error e -> failed e
      | Ok m ->
          {
            jr_status = "ok";
            jr_exit = 0;
            jr_report = Conair.Replay.Minimize.to_json m;
            jr_record = None;
            jr_spans = None;
            jr_bundle = None;
          })

let exec_fuzz ~telemetry ~target ~runs ~base_seed ~(exec : Protocol.exec) =
  match resolve target with
  | Error e -> failed e
  | Ok (app, _variant, inst) -> (
      match Conair.harden inst.Spec.program Conair.Survival with
      | Error e -> failed e
      | Ok h ->
          let engine = engine_of_name exec.engine in
          let records = ref [] in
          for i = 0 to runs - 1 do
            let seed = base_seed + i in
            let config =
              config_of_exec { exec with Protocol.seed = Some seed }
            in
            let r = Conair.execute_hardened ~config ~engine h in
            let rec_j =
              Aggregate.run_record ~case:app ~seed ~outcome:r.outcome r.stats
            in
            records := rec_j :: !records;
            telemetry rec_j
          done;
          let records = List.rev !records in
          {
            jr_status = "ok";
            jr_exit = 0;
            jr_report = Aggregate.to_json (Aggregate.of_records records);
            jr_record =
              (* the sweep's last record stands in for the job *)
              (match List.rev records with last :: _ -> Some last | [] -> None);
            jr_spans = None;
            jr_bundle = None;
          })

let exec_fix ~target ~max_candidates ~sweep_seeds ~search_seeds
    ~(exec : Protocol.exec) =
  match resolve target with
  | Error e -> failed e
  | Ok (app, variant, inst) ->
      let module Pipeline = Conair.Fix.Pipeline in
      let base = config_of_exec exec in
      let options =
        {
          Pipeline.default_options with
          Pipeline.engine = engine_of_name exec.engine;
          fuel = base.Machine.fuel;
          max_retries = base.Machine.max_retries;
          max_candidates;
          sweep_seeds;
          search_seeds;
        }
      in
      let report =
        Pipeline.run ~options ~accept:inst.Spec.accept ~app ~variant
          inst.Spec.program
      in
      {
        jr_status = "ok";
        jr_exit =
          (* exit 2 with no surviving candidate, as the fix subcommand *)
          (if report.Pipeline.fx_survivors > 0 then 0 else 2);
        jr_report = Pipeline.to_json report;
        jr_record = None;
        jr_spans = None;
        jr_bundle = None;
      }

(* Execute [spec], streaming any per-job telemetry records through
   [telemetry] as they are produced. Never raises: failures come back
   as an ["error"] outcome. *)
let execute ?(telemetry = fun (_ : Json.t) -> ()) (spec : Protocol.spec) :
    outcome =
  try
    match spec with
    | Protocol.Run { target; mode; exec } ->
        exec_run ~telemetry ~target ~mode ~exec
    | Protocol.Harden { target; mode } -> exec_harden ~target ~mode
    | Protocol.Detect { target; original; exec } ->
        exec_detect ~target ~original ~exec
    | Protocol.Minimize { log; max_tests; detect } ->
        exec_minimize ~log ~max_tests ~detect
    | Protocol.Fuzz { target; runs; base_seed; exec } ->
        exec_fuzz ~telemetry ~target ~runs ~base_seed ~exec
    | Protocol.Fix { target; max_candidates; sweep_seeds; search_seeds; exec }
      ->
        exec_fix ~target ~max_candidates ~sweep_seeds ~search_seeds ~exec
  with
  | Invalid_argument e -> failed e
  | Failure e -> failed e
