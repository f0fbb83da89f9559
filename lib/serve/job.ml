(* Job execution: the one implementation of each job kind. The serve
   daemon reaches it through [execute] (one call per protocol job); the
   CLI calls the typed entry points directly for run, file, report,
   harden, races, minimize and fix, and keeps only flag parsing, text
   rendering and file writing. A served report therefore equals the
   CLI's output for the same inputs by construction:

   - run      = [Conair.run_report_of]  (conair_cli run / report / file)
   - harden   = [Conair.harden]         (conair_cli harden)
   - detect   = [Conair.run_detected] / [detect_hardened]  (conair_cli races)
   - minimize = [Conair.minimize]       (conair_cli minimize)
   - fuzz     = hardened seed sweep folding fuzz-style run records into
                an [Obs.Aggregate] (conair_cli aggregate over a fuzz log)
   - fix      = [Conair.Fix.Pipeline.run]  (conair_cli fix)

   Exit codes are the CLI's: 0 ok, 1 error, 2 failed run (or no
   surviving fix candidate), 3 detector findings. *)

module Json = Conair_obs.Json
module Jsonl = Conair_obs.Jsonl
module Span = Conair_obs.Span
module Aggregate = Conair_obs.Aggregate
module Outcome = Conair_runtime.Outcome
module Machine = Conair_runtime.Machine
module Sched = Conair_runtime.Sched
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Pipeline = Conair.Fix.Pipeline
module Race_report = Conair.Race.Report

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

type 'a typed = { value : 'a; outcome : outcome }

let ok ?record ?spans ~exit report =
  {
    jr_status = "ok";
    jr_exit = exit;
    jr_report = report;
    jr_record = record;
    jr_spans = spans;
    jr_bundle = None;
  }

let failed msg =
  {
    jr_status = "error";
    jr_exit = 1;
    jr_report =
      Json.Obj
        [ ("type", Json.String "job_error"); ("message", Json.String msg) ];
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

let ( let* ) = Result.bind

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

(* --- targets and modes --------------------------------------------- *)

type target = {
  label : string;
  variant : string;
  oracle : bool;
  inst : Spec.instance;
}

let find_app name =
  match Registry.find name with
  | Some spec -> Ok spec
  | None ->
      Error
        (Printf.sprintf "unknown application %S; try: %s" name
           (String.concat ", " Registry.names))

(* Inline source programs get the trivial instance (no fix sites,
   accept-all), labelled "source". *)
let resolve = function
  | Protocol.Bench { app; variant; oracle } ->
      let* spec = find_app app in
      let oracle = oracle || spec.Spec.info.needs_oracle in
      let v = if variant = "clean" then Spec.Clean else Spec.Buggy in
      let inst = spec.Spec.make ~variant:v ~oracle in
      Ok { label = app; variant; oracle; inst }
  | Protocol.Source src -> (
      match Conair.Ir.Parse.program src with
      | Error e ->
          Error (Format.asprintf "bad program: %a" Conair.Ir.Parse.pp_error e)
      | Ok p -> (
          match Conair.Ir.Validate.check p with
          | [] ->
              Ok
                {
                  label = "source";
                  variant = "buggy";
                  oracle = false;
                  inst = Spec.instance p;
                }
          | problems ->
              Error
                (Format.asprintf "invalid program: %a"
                   (Format.pp_print_list
                      ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
                      Conair.Ir.Validate.pp_problem)
                   problems)))

let mode_of (t : target) = function
  | "none" -> Ok None
  | "survival" -> Ok (Some Conair.Survival)
  | "fix" ->
      if t.inst.Spec.fix_site_iids = [] then
        Error "fix mode needs a benchmark with known failing sites"
      else Ok (Some (Conair.Fix t.inst.Spec.fix_site_iids))
  | m -> Error (Printf.sprintf "unknown mode %S" m)

(* --- the job kinds ------------------------------------------------- *)

let run_exit (r : Conair.run) =
  if Outcome.is_success r.Conair.outcome then 0 else 2

let run ?trace_writer (t : target) ~mode (exec : Protocol.exec) =
  let meta_info = Jsonl.run_meta ~variant:t.variant ?seed:exec.seed t.label in
  let rr =
    Conair.run_report_of ~config:(config_of_exec exec) ~engine:exec.engine
      ~meta_info ?trace_writer ~mode t.inst.Spec.program
  in
  let r = rr.Conair.run in
  {
    value = rr;
    outcome =
      ok ~exit:(run_exit r)
        ~record:
          (* the fuzzer's run record, so a tenant's job history and a
             fuzz log aggregate identically *)
          (Aggregate.run_record ~case:t.label
             ~seed:(Option.value ~default:0 exec.seed)
             ~outcome:r.Conair.outcome r.Conair.stats)
        ~spans:(Span.to_chrome ~events:rr.Conair.events rr.Conair.spans)
        rr.Conair.report;
  }

let run_bare (t : target) ~mode (exec : Protocol.exec) =
  let config = config_of_exec exec and engine = exec.engine in
  match mode with
  | None -> Conair.execute ~config ~engine t.inst.Spec.program
  | Some m ->
      Conair.execute_hardened ~config ~engine
        (Conair.harden_exn t.inst.Spec.program m)

type _ artifact =
  | Flight : string -> Conair.Obs.Flight.t artifact
  | Schedule : Conair.Replay.Log.t artifact

(* Runs are deterministic, so the capture re-run is the run it
   explains. *)
let capture (type a) (kind : a artifact) (t : target) ~mode
    (exec : Protocol.exec) : a =
  let config = config_of_exec exec and engine = exec.engine in
  let ident =
    Conair.Replay.Log.ident ~variant:t.variant ~oracle:t.oracle
      ~mode:(Conair.mode_name mode) t.label
  in
  let h = Option.map (Conair.harden_exn t.inst.Spec.program) mode in
  match (kind, h) with
  | Flight reason, None ->
      snd
        (Conair.run_flight ~config ~engine ~reason ~ident t.inst.Spec.program)
  | Flight reason, Some h ->
      let hd = h.Conair.hardened in
      snd
        (Conair.run_flight ~config ~engine
           ~meta:(Machine.meta_of_harden hd)
           ~reason ~ident hd.Conair_transform.Harden.program)
  | Schedule, None ->
      snd (Conair.record_run ~config ~engine ~ident t.inst.Spec.program)
  | Schedule, Some h -> snd (Conair.run_recorded ~config ~engine ~ident h)

let harden ?analysis (t : target) mode =
  let* h = Conair.harden ?analysis t.inst.Spec.program mode in
  Ok
    {
      value = h;
      outcome =
        ok ~exit:0
          (Json.Obj
             [
               ("type", Json.String "harden_report");
               ("app", Json.String t.label);
               ("sites", Json.Int (List.length h.Conair.plan.site_plans));
               ( "program",
                 Json.String
                   (Format.asprintf "%a@." Conair.Ir.Program.pp
                      h.Conair.hardened.program) );
             ]);
    }

let detect ?options (t : target) ~original (exec : Protocol.exec) =
  let config = config_of_exec exec and engine = exec.engine in
  let r, report =
    if original then
      Conair.run_detected ~config ~engine ?options t.inst.Spec.program
    else
      Conair.detect_hardened ~config ~engine ?options
        (Conair.harden_exn t.inst.Spec.program Conair.Survival)
  in
  let findings =
    report.Race_report.races <> []
    || List.exists (fun c -> c.Race_report.cy_actual) report.Race_report.cycles
  in
  {
    value = (r, report);
    outcome =
      ok ~exit:(if findings then 3 else 0) (Race_report.to_json report);
  }

let minimize ?program ~max_tests ~detect log =
  let* m = Conair.minimize ~max_tests ~detect ?program log in
  Ok { value = m; outcome = ok ~exit:0 (Conair.Replay.Minimize.to_json m) }

let fix (t : target) ~max_candidates ~sweep_seeds ~search_seeds
    (exec : Protocol.exec) =
  let options =
    {
      Pipeline.default_options with
      Pipeline.engine = exec.engine;
      fuel = exec.fuel;
      max_retries = exec.max_retries;
      max_candidates;
      sweep_seeds;
      search_seeds;
    }
  in
  let report =
    Pipeline.run ~options ~accept:t.inst.Spec.accept ~app:t.label
      ~variant:t.variant t.inst.Spec.program
  in
  {
    value = report;
    outcome =
      ok
        ~exit:(if report.Pipeline.fx_survivors > 0 then 0 else 2)
        (Pipeline.to_json report);
  }

(* Served only: a seed sweep of hardened runs, one run record each. *)
let fuzz ~telemetry (t : target) ~runs ~base_seed (exec : Protocol.exec) =
  let* h = Conair.harden t.inst.Spec.program Conair.Survival in
  let records =
    List.init runs (fun i ->
        let seed = base_seed + i in
        let config = config_of_exec { exec with Protocol.seed = Some seed } in
        let r = Conair.execute_hardened ~config ~engine:exec.engine h in
        let record =
          Aggregate.run_record ~case:t.label ~seed ~outcome:r.outcome r.stats
        in
        telemetry record;
        record)
  in
  Ok
    (ok ~exit:0
       ?record:
         (* the sweep's last record stands in for the job *)
         (match List.rev records with last :: _ -> Some last | [] -> None)
       (Aggregate.to_json (Aggregate.of_records records)))

(* --- the protocol entry point -------------------------------------- *)

let execute_spec ~telemetry = function
  | Protocol.Run { target; mode; exec } ->
      let* t = resolve target in
      let* mode = mode_of t mode in
      let trace_writer =
        {
          Jsonl.write =
            (fun line ->
              match Json.of_string line with
              | Ok j -> telemetry j
              | Error _ -> ());
        }
      in
      let o = (run ~trace_writer t ~mode exec).outcome in
      (* A failed run also yields its flight-recorder bundle, retained by
         telemetry for the [bundle] fetch op — the same capture the
         CLI's [run --flight] dumps. *)
      Ok
        (if o.jr_exit = 0 then o
         else
           {
             o with
             jr_bundle =
               Some
                 (Conair.Obs.Flight.to_json
                    (capture (Flight "failure") t ~mode exec));
           })
  | Protocol.Harden { target; mode } ->
      let* t = resolve target in
      let* mode = mode_of t mode in
      let* mode =
        Option.to_result ~none:"harden job needs mode survival or fix" mode
      in
      Result.map (fun h -> h.outcome) (harden t mode)
  | Protocol.Detect { target; original; exec } ->
      let* t = resolve target in
      Ok (detect t ~original exec).outcome
  | Protocol.Minimize { log; max_tests; detect } ->
      let* log =
        Result.map_error
          (Printf.sprintf "bad schedule log: %s")
          (Conair.Replay.Log.of_lines log)
      in
      Result.map (fun m -> m.outcome) (minimize ~max_tests ~detect log)
  | Protocol.Fuzz { target; runs; base_seed; exec } ->
      let* t = resolve target in
      fuzz ~telemetry t ~runs ~base_seed exec
  | Protocol.Fix { target; max_candidates; sweep_seeds; search_seeds; exec }
    ->
      let* t = resolve target in
      Ok (fix t ~max_candidates ~sweep_seeds ~search_seeds exec).outcome

let execute ?(telemetry = fun (_ : Json.t) -> ()) (spec : Protocol.spec) :
    outcome =
  match execute_spec ~telemetry spec with
  | Ok o -> o
  | Error e -> failed e
  | exception (Invalid_argument e | Failure e) -> failed e
