(* repair: Fix.Pipeline.run with default options over the @fix set —
   one atomicity violation (MySQL1) and two deadlocks (HawkNL,
   MozillaJS). Detector-instrumented multi-seed gate sweeps, ddmin and
   Overhead.cost_of dominate it. The traced run re-drives the same
   stages one by one. *)

open Util
module Pipeline = Conair.Fix.Pipeline
module Patch = Conair.Fix.Patch
module Gates = Conair.Fix.Gates
module Plan = Conair.Analysis.Plan
module Harden = Conair.Transform.Harden
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome
module Detect = Conair.Race.Detect
module Report = Conair.Race.Report
module Driver = Conair.Replay.Driver
module Minimize = Conair.Replay.Minimize
module Log = Conair.Replay.Log
module Overhead = Conair.Obs.Overhead
module Json = Conair.Obs.Json
module Spec = Conair_bugbench.Bench_spec

(* The apps and the survivor count each must reach. *)
let expected_survivors = [ ("MySQL1", 3); ("HawkNL", 1); ("MozillaJS", 3) ]

type app = { name : string; inst : Spec.instance }
type ctx = { apps : app array; order : Random.State.t; reports : (string, string) Hashtbl.t }

let setup ~seed =
  {
    apps =
      Array.of_list
        (List.map
           (fun (name, _) -> { name; inst = Apps.instance (Apps.find name) })
           expected_survivors);
    order = rng ~seed "repair.order";
    reports = Hashtbl.create 3;
  }

let fix (a : app) =
  Pipeline.run ~accept:a.inst.Spec.accept ~app:a.name ~variant:"buggy" a.inst.Spec.program

(* Survivors as pinned, and the report JSON byte-identical to the first
   one this run produced for the app. *)
let check_report ctx (a : app) (r : Pipeline.t) =
  check
    (Printf.sprintf "repair: %s survivors = %d" a.name (List.assoc a.name expected_survivors))
    (r.Pipeline.fx_survivors = List.assoc a.name expected_survivors);
  let json = Json.to_string (Pipeline.to_json r) in
  match Hashtbl.find_opt ctx.reports a.name with
  | None -> Hashtbl.replace ctx.reports a.name json
  | Some first -> check ("repair: " ^ a.name ^ " fix report identical across passes") (json = first)

(* One pass over the apps in a fresh seeded order, each app's time (ms,
   at the mean of the host-speed scales before and after it — a call
   takes seconds) filed under its name. *)
let pass ctx lat =
  Array.iter
    (fun a ->
      calibrate ();
      let before = !scale in
      let r, dt = time (fun () -> fix a) in
      calibrate ();
      add lat a.name (dt *. (before +. !scale) /. 2. *. 1000.);
      check_report ctx a r)
    (shuffle ctx.order ctx.apps)

(* Each app at its median over the passes. *)
let measure ctx ~seconds =
  let t0 = now () and lat = samples () in
  pass ctx lat;
  mark_rss ();
  while now () -. t0 < seconds do
    resetup ();
    pass ctx lat
  done;
  let ms = unit_medians lat in
  info "repair: %d runs" (count_samples lat);
  [
    metric "throughput_per_s" "1/s" (units_per_s lat);
    metric "latency_p50_ms" "ms" (quantile 0.5 ms);
    metric "latency_p90_ms" "ms" (quantile 0.9 ms);
  ]

(* ---- the traced re-drive ------------------------------------------
   The same stages Fix.Pipeline.run chains, called one by one through
   Race / Replay / Fix.Patch / Fix.Gates / Obs.Overhead so each gets a
   span. The result is assembled into a Pipeline.t and its JSON must
   equal Fix.Pipeline.run's byte for byte: the trace measures the same
   work. *)

let options = Pipeline.default_options

let config =
  {
    Machine.default_config with
    Machine.policy = Sched.Round_robin;
    fuel = options.Pipeline.fuel;
    max_retries = options.Pipeline.max_retries;
  }

let merge_reports (reports : Report.t list) : Report.t =
  let seen = Hashtbl.create 16 in
  let once key v acc =
    if Hashtbl.mem seen key then acc
    else begin
      Hashtbl.replace seen key ();
      v :: acc
    end
  in
  let rs, ws, cs =
    List.fold_left
      (fun (rs, ws, cs) (r : Report.t) ->
        ( List.fold_left (fun acc x -> once ("r:" ^ Report.addr_string x.Report.rc_addr) x acc) rs r.Report.races,
          List.fold_left (fun acc x -> once ("w:" ^ Report.addr_string x.Report.w_addr) x acc) ws r.Report.warnings,
          List.fold_left (fun acc x -> once ("c:" ^ Report.cycle_key x) x acc) cs r.Report.cycles ))
      ([], [], []) reports
  in
  { Report.races = List.rev rs; warnings = List.rev ws; cycles = List.rev cs }

let survival_harden p =
  Tracer.span "analysis.harden" (fun () ->
      match Plan.analyze p Plan.Survival with
      | Ok plan -> Some (Harden.apply plan)
      | Error _ -> None)

let detect_races p =
  let program, meta =
    match survival_harden p with
    | Some h -> (h.Harden.program, Some (Machine.meta_of_harden h))
    | None -> (p, None)
  in
  let one policy =
    Tracer.span "race.detect" (fun () ->
        let det = Detect.create () in
        let m =
          Engine.create ~config:{ config with Machine.policy } ?meta
            ~hooks:(Hooks.bundle ~race:(Detect.probe det) ())
            options.Pipeline.engine program
        in
        ignore (Engine.run m);
        Detect.report det)
  in
  merge_reports
    (List.map one
       (Sched.Round_robin
       :: List.init (min 10 options.Pipeline.search_seeds) (fun i -> Sched.Random (i + 1))))

let find_failing ?accept ~ident p =
  let is_failing (rb : Driver.result_bundle) =
    match rb.Driver.rb_outcome with
    | Outcome.Failed _ | Outcome.Hang _ -> true
    | Outcome.Success -> ( match accept with Some f -> not (f rb.Driver.rb_outputs) | None -> false)
    | Outcome.Fuel_exhausted _ -> false
  in
  let rec go = function
    | [] -> None
    | policy :: rest ->
        let rb, log =
          Driver.record ~engine:options.Pipeline.engine ~config:{ config with Machine.policy } ~ident p
        in
        if is_failing rb then Some (policy, rb, log) else go rest
  in
  go (Sched.Round_robin :: List.init options.Pipeline.search_seeds (fun i -> Sched.Random (i + 1)))

let policy_string = function
  | Sched.Round_robin -> "round-robin"
  | Sched.Random s -> Printf.sprintf "random:%d" s

let rank cands =
  let survivors, rest = List.partition (fun c -> c.Pipeline.c_survived) cands in
  let by_cost (a : Pipeline.candidate) (b : Pipeline.candidate) =
    match (a.c_cost, b.c_cost) with
    | Some ca, Some cb ->
        let c = compare ca.Overhead.k_mean_instrs cb.Overhead.k_mean_instrs in
        if c <> 0 then c else compare a.c_patch.Patch.p_id b.c_patch.Patch.p_id
    | _ -> compare a.c_patch.Patch.p_id b.c_patch.Patch.p_id
  in
  List.stable_sort by_cost survivors @ rest

let cost ?meta p =
  Tracer.span "fix.cost" (fun () -> Overhead.cost_of ~config ?meta ~seeds:options.Pipeline.cost_seeds p)

let redrive (a : app) : Pipeline.t =
  let p = a.inst.Spec.program and accept = a.inst.Spec.accept in
  let engine = options.Pipeline.engine in
  let detection = detect_races p in
  let base_cost = cost p in
  let hardened_overhead_pct =
    Option.map
      (fun h ->
        Overhead.cost_overhead_pct ~base:base_cost
          (cost ~meta:(Machine.meta_of_harden h) h.Harden.program))
      (survival_harden p)
  in
  let ident = Log.ident ~variant:"buggy" ~mode:"none" a.name in
  let base =
    {
      Pipeline.fx_app = a.name;
      fx_variant = "buggy";
      fx_detection = detection;
      fx_failure = None;
      fx_fail_policy = None;
      fx_fail_decisions = None;
      fx_minimized = None;
      fx_sweep_seeds = options.Pipeline.sweep_seeds;
      fx_baseline = None;
      fx_base_cost = base_cost;
      fx_hardened_overhead_pct = hardened_overhead_pct;
      fx_candidates = [];
      fx_survivors = 0;
    }
  in
  match Tracer.span "fix.search" (fun () -> find_failing ~accept ~ident p) with
  | None -> base
  | Some (policy, rb, log) ->
      let log, minimized =
        match
          Tracer.span "fix.minimize" (fun () ->
              Minimize.minimize ~max_tests:options.Pipeline.minimize_budget ~detect:false ~program:p log)
        with
        | Ok mn -> (mn.Minimize.mn_log, Some (mn.Minimize.mn_original, mn.Minimize.mn_minimized))
        | Error _ -> (log, None)
      in
      let sweep prog =
        Tracer.span "fix.sweep" (fun () ->
            Gates.sweep ~engine ~accept ~config ~seeds:options.Pipeline.sweep_seeds prog)
      in
      let baseline = sweep p in
      let order_timeout = max options.Pipeline.order_timeout (2 * rb.Driver.rb_steps) in
      let patches =
        Tracer.span "fix.synthesize" (fun () ->
            Patch.synthesize ~max_candidates:options.Pipeline.max_candidates ~order_timeout p detection)
      in
      let evaluate (patch : Patch.t) =
        let g1 =
          Tracer.span "fix.replay_gate" (fun () ->
              Gates.replay_gate ~engine ~accept ~log patch.Patch.p_program)
        in
        let sw = sweep patch.Patch.p_program in
        let g2 = Gates.regression_gate sw and g3 = Gates.deadlock_gate ~baseline sw in
        let survived = g1.Gates.g_passed && g2.Gates.g_passed && g3.Gates.g_passed in
        let c = if survived then Some (cost patch.Patch.p_program) else None in
        {
          Pipeline.c_patch = patch;
          c_gates = [ g1; g2; g3 ];
          c_survived = survived;
          c_schedules = sw.Gates.sw_signatures;
          c_cost = c;
          c_overhead_pct = Option.map (Overhead.cost_overhead_pct ~base:base_cost) c;
        }
      in
      let cands = rank (List.map evaluate patches) in
      {
        base with
        fx_failure = Some (Outcome.to_string rb.Driver.rb_outcome);
        fx_fail_policy = Some (policy_string policy);
        fx_fail_decisions = Some (Array.length log.Log.decisions);
        fx_minimized = minimized;
        fx_baseline = Some baseline;
        fx_candidates = cands;
        fx_survivors = List.length (List.filter (fun c -> c.Pipeline.c_survived) cands);
      }

let traced ctx =
  let cands = ref 0 and survivors = ref 0 in
  Array.iter
    (fun a ->
      let r = Tracer.span "repair.app" (fun () -> redrive a) in
      check_report ctx a r;
      check
        ("repair: re-driven stages reach Fix.Pipeline.run's report for " ^ a.name)
        (Json.to_string (Pipeline.to_json r) = Hashtbl.find ctx.reports a.name);
      cands := !cands + List.length r.Pipeline.fx_candidates;
      survivors := !survivors + r.Pipeline.fx_survivors)
    ctx.apps;
  let total name = sum (Tracer.durations_ms name) in
  [
    metric "race.detect_ms_per_run" "ms" (median (Tracer.durations_ms "race.detect"));
    metric "fix.search_ms" "ms" (total "fix.search");
    metric "fix.minimize_ms" "ms" (total "fix.minimize");
    metric "fix.synthesize_ms" "ms" (total "fix.synthesize");
    metric "fix.replay_gate_ms" "ms" (total "fix.replay_gate");
    metric "fix.sweep_ms" "ms" (total "fix.sweep");
    metric "fix.cost_ms" "ms" (total "fix.cost");
    metric "fix.candidates" "count" (float_of_int !cands);
    metric "fix.survivor_ratio" "x" (float_of_int !survivors /. float_of_int (max 1 !cands));
  ]
