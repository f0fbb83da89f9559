(* The three validation gates every candidate patch must pass (see
   docs/FIXING.md):

   1. replay — the recorded failing schedule, recast as context-switch
      directives and driven through the divergence-safe directed feed
      against the *patched* program, must now succeed (and, under an
      output oracle, produce accepted outputs);

   2. regression — a multi-seed sweep (round-robin plus N seeded random
      schedules, the campaign fuzzer's vocabulary) must show no failing
      or hanging run and no rejected output anywhere;

   3. deadlock-freedom — the same sweep runs under the race detector's
      lock-order lens; the candidate may keep the lock-order cycles the
      buggy program already had, but must not mint new ones
      (Report.new_cycles against a baseline sweep of the original
      program).

   Gates 2 and 3 share one detector-instrumented sweep per candidate.
   Everything reported here is deterministic in (program, config,
   seeds): counts come from the engines' differential-guaranteed
   statistics and signatures from the recorder's decision stream
   (Recorder.signature, Obs.Coverage's format), so gate results are
   byte-identical across the ref/fast/block engines. *)

open Conair_ir
open Conair_runtime
module Driver = Conair_replay.Driver
module Log = Conair_replay.Schedule_log
module Detect = Conair_race.Detect
module Report = Conair_race.Report

type result = { g_gate : string; g_passed : bool; g_detail : string }

(* ---- gate 1: directed replay of the failing schedule -------------- *)

let replay_gate ?(engine = Engine.Block) ?accept ~log program : result =
  let rb = Driver.replay_directed ~engine ~program log in
  let ok_outcome = Outcome.is_success rb.Driver.rb_outcome in
  let ok_outputs =
    match accept with None -> true | Some f -> f rb.Driver.rb_outputs
  in
  let detail =
    if not ok_outcome then
      Printf.sprintf "failing schedule still fails: %s"
        (Outcome.to_string rb.Driver.rb_outcome)
    else if not ok_outputs then "failing schedule now succeeds but outputs rejected"
    else
      Printf.sprintf "failing schedule passes (%d instrs)"
        rb.Driver.rb_stats.Stats.instrs
  in
  { g_gate = "replay"; g_passed = ok_outcome && ok_outputs; g_detail = detail }

(* ---- the shared sweep (gates 2 and 3) ----------------------------- *)

type sweep = {
  sw_runs : int;
  sw_failures : int;  (* failed / hung / fuel-exhausted runs *)
  sw_rejected : int;  (* successful runs whose outputs the oracle rejects *)
  sw_signatures : int;  (* distinct interleaving signatures exercised *)
  sw_cycle_keys : string list;  (* union of lock-order cycle keys, sorted *)
  sw_first_failure : string option;
}

let sweep ?(engine = Engine.Block) ?accept ~config ~seeds (p : Program.t) :
    sweep =
  let failures = ref 0 and rejected = ref 0 in
  let sigs = Hashtbl.create 64 in
  let cycles = Hashtbl.create 8 in
  let first = ref None in
  let one policy =
    let det = Detect.create () in
    let rc = Conair_replay.Recorder.create () in
    let m =
      Engine.create
        ~config:{ config with Machine.policy }
        ~hooks:
          (Hooks.bundle ~race:(Detect.probe det)
             ~tap:(Conair_replay.Recorder.tap rc)
             ~tap_run:(Conair_replay.Recorder.tap_run rc) ())
        engine p
    in
    let outcome = Engine.run m in
    Hashtbl.replace sigs
      (Conair_replay.Recorder.signature ~context:"fix-sweep" rc)
      ();
    let report = Detect.report det in
    List.iter
      (fun c -> Hashtbl.replace cycles (Report.cycle_key c) ())
      report.Report.cycles;
    if not (Outcome.is_success outcome) then begin
      incr failures;
      if !first = None then first := Some (Outcome.to_string outcome)
    end
    else
      match accept with
      | Some f when not (f (Engine.outputs m)) ->
          incr rejected;
          if !first = None then first := Some "outputs rejected"
      | _ -> ()
  in
  one Sched.Round_robin;
  for s = 1 to seeds do
    one (Sched.Random s)
  done;
  {
    sw_runs = seeds + 1;
    sw_failures = !failures;
    sw_rejected = !rejected;
    sw_signatures = Hashtbl.length sigs;
    sw_cycle_keys = Hashtbl.fold (fun k () acc -> k :: acc) cycles [] |> List.sort compare;
    sw_first_failure = !first;
  }

(* ---- gate 2: no regression across the sweep ----------------------- *)

let regression_gate (sw : sweep) : result =
  let passed = sw.sw_failures = 0 && sw.sw_rejected = 0 in
  let detail =
    Printf.sprintf "%d runs, %d failures, %d rejected outputs, %d schedules%s"
      sw.sw_runs sw.sw_failures sw.sw_rejected sw.sw_signatures
      (match sw.sw_first_failure with
      | Some f when not passed -> Printf.sprintf " (first: %s)" f
      | _ -> "")
  in
  { g_gate = "regression"; g_passed = passed; g_detail = detail }

(* ---- gate 3: no new lock-order cycles ----------------------------- *)

let deadlock_gate ~(baseline : sweep) (sw : sweep) : result =
  let seen = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace seen k ()) baseline.sw_cycle_keys;
  let fresh = List.filter (fun k -> not (Hashtbl.mem seen k)) sw.sw_cycle_keys in
  let detail =
    match fresh with
    | [] ->
        Printf.sprintf "no new lock-order cycles (%d pre-existing)"
          (List.length baseline.sw_cycle_keys)
    | ks -> Printf.sprintf "new lock-order cycles: %s" (String.concat ", " ks)
  in
  { g_gate = "deadlock-freedom"; g_passed = fresh = []; g_detail = detail }

let result_json (r : result) : Conair_obs.Json.t =
  let module Json = Conair_obs.Json in
  Json.Obj
    [
      ("gate", Json.String r.g_gate);
      ("passed", Json.Bool r.g_passed);
      ("detail", Json.String r.g_detail);
    ]
