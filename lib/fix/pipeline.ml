(* The end-to-end fix pipeline: detect -> record a failing schedule ->
   minimize -> synthesize candidates -> three validation gates -> rank
   survivors by measured cost. See docs/FIXING.md for the design.

   Determinism: every number in the report comes from the engines'
   differential-guaranteed statistics (instruction/step counts), from
   deterministic schedules (round-robin plus seeded random), or from
   canonical detector output — no wall-clock time, no engine names. The
   JSON is therefore byte-identical across the ref/fast/block engines
   for a given (program, options). *)

open Conair_ir
open Conair_runtime
module Plan = Conair_analysis.Plan
module Harden = Conair_transform.Harden
module Detect = Conair_race.Detect
module Report = Conair_race.Report
module Driver = Conair_replay.Driver
module Log = Conair_replay.Schedule_log
module Minimize = Conair_replay.Minimize
module Overhead = Conair_obs.Overhead
module Json = Conair_obs.Json

type options = {
  engine : Engine.t;  (* execution engine for every run of the pipeline *)
  fuel : int;
  max_retries : int;
  max_candidates : int;  (* cap on synthesized candidates *)
  sweep_seeds : int;  (* random seeds per validation sweep (gates 2+3) *)
  search_seeds : int;  (* random seeds tried when hunting a failing run *)
  minimize_budget : int;  (* ddmin candidate executions *)
  order_timeout : int;  (* virtual-time budget of order-candidate waits *)
  cost_seeds : int list;  (* seeds of the Overhead.cost_of measurement *)
}

let default_options =
  {
    engine = Engine.Block;
    fuel = 8_000_000;
    max_retries = 1_000_000;
    max_candidates = 8;
    sweep_seeds = 100;
    search_seeds = 50;
    minimize_budget = 2000;
    order_timeout = 30_000;
    cost_seeds = [ 1; 2; 3 ];
  }

type candidate = {
  c_patch : Patch.t;
  c_gates : Gates.result list;  (* replay, regression, deadlock-freedom *)
  c_survived : bool;
  c_schedules : int;  (* distinct interleaving signatures in its sweep *)
  c_cost : Overhead.cost option;  (* survivors only *)
  c_overhead_pct : float option;  (* vs. the unpatched program *)
}

type t = {
  fx_app : string;
  fx_variant : string;
  fx_detection : Report.t;  (* merged detection findings *)
  fx_failure : string option;  (* recorded failing outcome; None = not found *)
  fx_fail_policy : string option;  (* "round-robin" | "random:N" *)
  fx_fail_decisions : int option;
  fx_minimized : (int * int) option;  (* preemptive switches before/after *)
  fx_sweep_seeds : int;
  fx_baseline : Gates.sweep option;  (* sweep of the unpatched program *)
  fx_base_cost : Overhead.cost;
  fx_hardened_overhead_pct : float option;
      (* ConAir survival hardening of the *unpatched* program — the
         "recover forever" alternative the fixed-overhead column is
         compared against *)
  fx_candidates : candidate list;  (* survivors first, cheapest first *)
  fx_survivors : int;
}

let config_of (o : options) =
  {
    Machine.default_config with
    Machine.policy = Sched.Round_robin;
    fuel = o.fuel;
    max_retries = o.max_retries;
  }

(* ---- detection ---------------------------------------------------- *)

let survival_harden p =
  match Plan.analyze p Plan.Survival with
  | Ok plan -> Some (Harden.apply plan)
  | Error _ -> None

(* Merge per-seed detection reports: first race per address, first
   cycle per key, first warning per address — in arrival order. *)
let merge_reports (reports : Report.t list) : Report.t =
  let seen = Hashtbl.create 16 in
  let once key v acc = if Hashtbl.mem seen key then acc else (Hashtbl.replace seen key (); v :: acc) in
  let races, warnings, cycles =
    List.fold_left
      (fun (rs, ws, cs) (r : Report.t) ->
        let rs =
          List.fold_left
            (fun acc x -> once ("r:" ^ Report.addr_string x.Report.rc_addr) x acc)
            rs r.Report.races
        in
        let ws =
          List.fold_left
            (fun acc x -> once ("w:" ^ Report.addr_string x.Report.w_addr) x acc)
            ws r.Report.warnings
        in
        let cs =
          List.fold_left
            (fun acc x -> once ("c:" ^ Report.cycle_key x) x acc)
            cs r.Report.cycles
        in
        (rs, ws, cs))
      ([], [], []) reports
  in
  { Report.races = List.rev races; warnings = List.rev warnings; cycles = List.rev cycles }

(* Detect on the survival-hardened program when the analysis accepts it
   (recovery keeps runs alive long enough to see more of the schedule),
   falling back to the original program otherwise. A handful of seeds:
   the HB lens does not need the bad interleaving to manifest, but some
   findings (actual deadlocks) are schedule-dependent. *)
let detect_races ~(options : options) (p : Program.t) : Report.t =
  let config = config_of options in
  let program, meta =
    match survival_harden p with
    | Some h -> (h.Harden.program, Some (Machine.meta_of_harden h))
    | None -> (p, None)
  in
  let one policy =
    let det = Detect.create () in
    let m =
      Engine.create
        ~config:{ config with Machine.policy }
        ?meta
        ~hooks:(Hooks.bundle ~race:(Detect.probe det) ())
        options.engine program
    in
    ignore (Engine.run m);
    Detect.report det
  in
  let policies =
    Sched.Round_robin
    :: List.init (min 10 options.search_seeds) (fun i -> Sched.Random (i + 1))
  in
  merge_reports (List.map one policies)

(* ---- failing-schedule search -------------------------------------- *)

let policy_string = function
  | Sched.Round_robin -> "round-robin"
  | Sched.Random s -> Printf.sprintf "random:%d" s

(* Record runs of the *original* program until one fails (or, under an
   output oracle, succeeds with rejected outputs). *)
let find_failing ~(options : options) ?accept ~ident (p : Program.t) =
  let config = config_of options in
  let is_failing (rb : Driver.result_bundle) =
    match rb.Driver.rb_outcome with
    | Outcome.Failed _ | Outcome.Hang _ -> true
    | Outcome.Success -> (
        match accept with Some f -> not (f rb.Driver.rb_outputs) | None -> false)
    | Outcome.Fuel_exhausted _ -> false
  in
  let rec go = function
    | [] -> None
    | policy :: rest ->
        let rb, log =
          Driver.record ~engine:options.engine
            ~config:{ config with Machine.policy }
            ~ident p
        in
        if is_failing rb then Some (policy, rb, log) else go rest
  in
  go
    (Sched.Round_robin
    :: List.init options.search_seeds (fun i -> Sched.Random (i + 1)))

(* ---- the pipeline ------------------------------------------------- *)

let rank_candidates cands =
  let survivors, rest = List.partition (fun c -> c.c_survived) cands in
  let by_cost a b =
    match (a.c_cost, b.c_cost) with
    | Some ca, Some cb ->
        let c = compare ca.Overhead.k_mean_instrs cb.Overhead.k_mean_instrs in
        if c <> 0 then c else compare a.c_patch.Patch.p_id b.c_patch.Patch.p_id
    | _ -> compare a.c_patch.Patch.p_id b.c_patch.Patch.p_id
  in
  List.stable_sort by_cost survivors @ rest

let run ?(options = default_options) ?accept ~app ~variant (p : Program.t) :
    t =
  let config = config_of options in
  let detection = detect_races ~options p in
  let base_cost =
    Overhead.cost_of ~engine:options.engine ~config
      ~seeds:options.cost_seeds p
  in
  let hardened_overhead_pct =
    match survival_harden p with
    | None -> None
    | Some h ->
        let c =
          Overhead.cost_of ~engine:options.engine ~config
            ~meta:(Machine.meta_of_harden h)
            ~seeds:options.cost_seeds h.Harden.program
        in
        Some (Overhead.cost_overhead_pct ~base:base_cost c)
  in
  let ident = Log.ident ~variant ~mode:"none" app in
  match find_failing ~options ?accept ~ident p with
  | None ->
      {
        fx_app = app;
        fx_variant = variant;
        fx_detection = detection;
        fx_failure = None;
        fx_fail_policy = None;
        fx_fail_decisions = None;
        fx_minimized = None;
        fx_sweep_seeds = options.sweep_seeds;
        fx_baseline = None;
        fx_base_cost = base_cost;
        fx_hardened_overhead_pct = hardened_overhead_pct;
        fx_candidates = [];
        fx_survivors = 0;
      }
  | Some (policy, rb, log) ->
      (* minimize the failing schedule; keep the raw log if ddmin cannot
         reproduce (e.g. oracle-rejected successful runs) *)
      let log, minimized =
        match
          Minimize.minimize ~engine:options.engine
            ~max_tests:options.minimize_budget ~detect:false ~program:p log
        with
        | Ok mn ->
            (mn.Minimize.mn_log, Some (mn.Minimize.mn_original, mn.Minimize.mn_minimized))
        | Error _ -> (log, None)
      in
      let baseline =
        Gates.sweep ~engine:options.engine ?accept ~config
          ~seeds:options.sweep_seeds p
      in
      (* Adaptive order-candidate timeout: the recorded failing run's
         length bounds how long the enforced ordering can take to become
         available (it contains every sleep on the way to the bug), so a
         wait of twice that cannot spuriously expire — while a
         wrong-direction wait still terminates instead of hanging. *)
      let order_timeout =
        max options.order_timeout (2 * rb.Driver.rb_steps)
      in
      let candidates =
        Patch.synthesize ~max_candidates:options.max_candidates
          ~order_timeout p detection
      in
      let evaluate (patch : Patch.t) =
        let g1 =
          Gates.replay_gate ~engine:options.engine ?accept ~log
            patch.Patch.p_program
        in
        let sw =
          Gates.sweep ~engine:options.engine ?accept ~config
            ~seeds:options.sweep_seeds patch.Patch.p_program
        in
        let g2 = Gates.regression_gate sw in
        let g3 = Gates.deadlock_gate ~baseline sw in
        let survived = g1.Gates.g_passed && g2.Gates.g_passed && g3.Gates.g_passed in
        let cost =
          if survived then
            Some
              (Overhead.cost_of ~engine:options.engine ~config
                 ~seeds:options.cost_seeds patch.Patch.p_program)
          else None
        in
        {
          c_patch = patch;
          c_gates = [ g1; g2; g3 ];
          c_survived = survived;
          c_schedules = sw.Gates.sw_signatures;
          c_cost = cost;
          c_overhead_pct =
            Option.map (Overhead.cost_overhead_pct ~base:base_cost) cost;
        }
      in
      let cands = rank_candidates (List.map evaluate candidates) in
      {
        fx_app = app;
        fx_variant = variant;
        fx_detection = detection;
        fx_failure = Some (Outcome.to_string rb.Driver.rb_outcome);
        fx_fail_policy = Some (policy_string policy);
        fx_fail_decisions = Some (Array.length log.Log.decisions);
        fx_minimized = minimized;
        fx_sweep_seeds = options.sweep_seeds;
        fx_baseline = Some baseline;
        fx_base_cost = base_cost;
        fx_hardened_overhead_pct = hardened_overhead_pct;
        fx_candidates = cands;
        fx_survivors = List.length (List.filter (fun c -> c.c_survived) cands);
      }

(* ---- report forms -------------------------------------------------- *)

let opt_json f = function None -> Json.Null | Some v -> f v

let candidate_json (c : candidate) : Json.t =
  let p = c.c_patch in
  Json.Obj
    [
      ("id", Json.String p.Patch.p_id);
      ("strategy", Json.String (Patch.strategy_name p.Patch.p_strategy));
      ("rung", Json.Int p.Patch.p_rung);
      ("target", Json.String p.Patch.p_target);
      ("sync", Json.List (List.map (fun s -> Json.String s) p.Patch.p_sync));
      ("edits", Json.List (List.map (fun s -> Json.String s) p.Patch.p_edits));
      ("region_local", Json.Bool p.Patch.p_region_local);
      ("gates", Json.List (List.map Gates.result_json c.c_gates));
      ("survived", Json.Bool c.c_survived);
      ("schedules", Json.Int c.c_schedules);
      ("cost", opt_json Overhead.cost_json c.c_cost);
      ("overhead_pct", opt_json (fun f -> Json.Float f) c.c_overhead_pct);
    ]

let sweep_json (sw : Gates.sweep) : Json.t =
  Json.Obj
    [
      ("runs", Json.Int sw.Gates.sw_runs);
      ("failures", Json.Int sw.Gates.sw_failures);
      ("rejected", Json.Int sw.Gates.sw_rejected);
      ("schedules", Json.Int sw.Gates.sw_signatures);
      ( "cycle_keys",
        Json.List (List.map (fun s -> Json.String s) sw.Gates.sw_cycle_keys) );
    ]

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("type", Json.String "fix_report");
      ("app", Json.String t.fx_app);
      ("variant", Json.String t.fx_variant);
      ( "detection",
        Json.Obj
          [
            ("races", Json.Int (List.length t.fx_detection.Report.races));
            ( "lockset_warnings",
              Json.Int (List.length t.fx_detection.Report.warnings) );
            ( "deadlock_cycles",
              Json.Int (List.length t.fx_detection.Report.cycles) );
          ] );
      ( "failing_schedule",
        match t.fx_failure with
        | None -> Json.Null
        | Some outcome ->
            Json.Obj
              [
                ("outcome", Json.String outcome);
                ( "policy",
                  opt_json (fun s -> Json.String s) t.fx_fail_policy );
                ("decisions", opt_json (fun d -> Json.Int d) t.fx_fail_decisions);
              ] );
      ( "minimized",
        opt_json
          (fun (before, after) ->
            Json.Obj
              [ ("preemptions", Json.Int before); ("minimized", Json.Int after) ])
          t.fx_minimized );
      ("sweep_seeds", Json.Int t.fx_sweep_seeds);
      ("baseline", opt_json sweep_json t.fx_baseline);
      ("base_cost", Overhead.cost_json t.fx_base_cost);
      ( "hardened_overhead_pct",
        opt_json (fun f -> Json.Float f) t.fx_hardened_overhead_pct );
      ("candidates", Json.List (List.map candidate_json t.fx_candidates));
      ( "summary",
        Json.Obj
          [
            ("candidates", Json.Int (List.length t.fx_candidates));
            ("survivors", Json.Int t.fx_survivors);
          ] );
    ]

let render (t : t) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "fix report for %s/%s\n" t.fx_app t.fx_variant;
  pf "  detection: %d races, %d lockset warnings, %d deadlock cycles\n"
    (List.length t.fx_detection.Report.races)
    (List.length t.fx_detection.Report.warnings)
    (List.length t.fx_detection.Report.cycles);
  (match (t.fx_failure, t.fx_fail_policy) with
  | Some outcome, Some policy ->
      pf "  failing schedule: %s (policy %s%s)\n" outcome policy
        (match t.fx_minimized with
        | Some (before, after) ->
            Printf.sprintf ", minimized %d -> %d preemptions" before after
        | None -> "")
  | _ -> pf "  no failing schedule found — nothing to validate against\n");
  (match t.fx_hardened_overhead_pct with
  | Some pct -> pf "  ConAir survival hardening overhead: %+.2f%%\n" pct
  | None -> ());
  List.iter
    (fun c ->
      let p = c.c_patch in
      pf "  %s %s (target %s)%s\n"
        (if c.c_survived then "[fix]" else "[rejected]")
        p.Patch.p_id p.Patch.p_target
        (if p.Patch.p_region_local then " [region-local]" else "");
      List.iter
        (fun (g : Gates.result) ->
          pf "      %-17s %s  %s\n" g.Gates.g_gate
            (if g.Gates.g_passed then "pass" else "FAIL")
            g.Gates.g_detail)
        c.c_gates;
      match c.c_overhead_pct with
      | Some pct -> pf "      overhead vs. buggy baseline: %+.2f%%\n" pct
      | None -> ())
    t.fx_candidates;
  pf "  %d/%d candidates survive all gates\n" t.fx_survivors
    (List.length t.fx_candidates);
  Buffer.contents b
