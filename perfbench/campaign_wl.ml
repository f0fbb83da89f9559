(* campaign: a single-process copy of the `conair_fuzz --apps` loop.
   Each seed draws an app and a random schedule, records an unhardened
   probe under an Obs.Coverage collector, then records the hardened run
   with the rollback verifier on. Failures are deduplicated by
   interleaving signature; each new unique finding is minimized. Every
   run is hooked, so every run takes the engines' generic per-step
   path. *)

open Util
module Machine = Conair.Runtime.Machine
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome
module Coverage = Conair.Obs.Coverage
module Log = Conair.Replay.Log
module Spec = Conair_bugbench.Bench_spec

(* seeds per pass: one pass is the unit the exact counts are taken over *)
let seeds_per_pass = 240

(* the fuzzer's fuel budget *)
let config = { Machine.default_config with Machine.fuel = 300_000 }

type app = { name : string; program : Conair.Ir.Program.t; hardened : Conair.hardened }

type ctx = { apps : app array; seeds : (app * int) array }

(* Hardened programs are cached per app, as the fuzzer caches them. *)
let setup ~seed =
  let apps =
    Array.of_list
      (List.map
         (fun (spec : Spec.t) ->
           let program = (Apps.instance spec).Spec.program in
           {
             name = spec.Spec.info.Spec.name;
             program;
             hardened = Conair.harden_exn program Conair.Survival;
           })
         Apps.all)
  in
  let d = deck (rng ~seed "campaign.apps") apps in
  let s = rng ~seed "campaign.schedules" in
  { apps; seeds = Array.init seeds_per_pass (fun _ -> (draw d, Random.State.bits s)) }

type counts = {
  mutable runs : int;
  mutable findings : int;
  mutable unique : int;
  mutable ddmin_tests : int;
  mutable violations : int;
}

let counts () = { runs = 0; findings = 0; unique = 0; ddmin_tests = 0; violations = 0 }

(* A failing run becomes a finding; a signature not seen before in this
   pass is a unique finding and is minimized. *)
let finding cov c coll log =
  c.findings <- c.findings + 1;
  let orders = (Coverage.observed coll).Coverage.ob_orders in
  let signature =
    Tracer.span "obs.signature" (fun () -> Conair.interleaving_signature ~orders log)
  in
  if Coverage.note_signature cov signature then begin
    c.unique <- c.unique + 1;
    match Tracer.span "replay.minimize" (fun () -> Conair.minimize ~detect:false log) with
    | Ok m -> c.ddmin_tests <- c.ddmin_tests + m.Conair.Replay.Minimize.mn_tests
    | Error _ -> ()
  end

let observe cov c ~app coll (r : Conair.run) log =
  c.runs <- c.runs + 1;
  Coverage.note cov ~app (Coverage.observed coll);
  if not (Outcome.is_success r.Conair.outcome) then finding cov c coll log

(* [timed] files the latency of each recorded run (ms) under its name. *)
let one_seed cov c ~timed (app, sched_seed) =
  let config = { config with Machine.policy = Sched.Random sched_seed } in
  let coll = Coverage.collector () in
  let r, log =
    timed "probe" (fun () ->
        Tracer.span "replay.record.probe" (fun () ->
            Conair.record_run ~config
              ~ident:(Log.ident ~variant:app.name ~mode:"unhardened" "perfbench")
              ~race:(Coverage.probe coll) app.program))
  in
  observe cov c ~app:app.name coll r log;
  let coll = Coverage.collector () in
  let r, log =
    timed "hardened" (fun () ->
        Tracer.span "replay.record.hardened" (fun () ->
            Conair.run_recorded
              ~config:{ config with Machine.verify_rollbacks = true }
              ~ident:(Log.ident ~variant:app.name ~mode:"survival" "perfbench")
              ~race:(Coverage.probe coll) app.hardened))
  in
  c.violations <- c.violations + r.Conair.stats.Conair.Runtime.Stats.tracecheck_violations;
  observe cov c ~app:app.name coll r log

(* One pass over the seed list with a fresh dedupe map: each seed's
   time (ms) filed in [seeds], each recorded run's in [runs]; returns
   the pass's counts. *)
let pass ctx ~seeds ~runs =
  let cov = Coverage.create () and c = counts () in
  Array.iteri
    (fun i s ->
      let timed what f =
        let v, dt = time f in
        add runs (Printf.sprintf "%d/%s" i what) (ref_ms dt);
        v
      in
      fresh_scale ();
      let (), dt =
        time (fun () -> Tracer.span "campaign.seed" (fun () -> one_seed cov c ~timed s))
      in
      add seeds (string_of_int i) (ref_ms dt))
    ctx.seeds;
  check "campaign: zero rollback-verifier violations" (c.violations = 0);
  c

(* The finding / unique / ddmin-test counts of a pass are a function of
   the seed alone: every pass must repeat the first one's exactly. *)
let check_repeat first c =
  check "campaign: finding, unique and ddmin-test counts repeat exactly"
    (first.runs = c.runs && first.findings = c.findings && first.unique = c.unique
   && first.ddmin_tests = c.ddmin_tests)

(* A pass repeats the same seeds, so every seed and every recorded run
   is taken at its median over the passes. Runs per second counts all of
   a seed's work (dedupe and ddmin included); the latency percentiles
   are over the recorded runs. *)
let measure ctx ~seconds =
  let t0 = now () and seeds = samples () and runs = samples () in
  let first = pass ctx ~seeds ~runs in
  mark_rss ();
  let passes = ref 1 in
  while now () -. t0 < seconds do
    resetup ();
    check_repeat first (pass ctx ~seeds ~runs);
    incr passes
  done;
  let ms = unit_medians runs in
  info "campaign: %d passes" !passes;
  [
    metric "throughput_per_s" "1/s" (float_of_int first.runs /. (sum (unit_medians seeds) /. 1000.));
    metric "latency_p50_ms" "ms" (quantile 0.5 ms);
    metric "latency_p90_ms" "ms" (quantile 0.9 ms);
  ]

let traced ctx =
  let c = pass ctx ~seeds:(samples ()) ~runs:(samples ()) in
  let c' = pass ctx ~seeds:(samples ()) ~runs:(samples ()) in
  check_repeat c c';
  let total name = sum (Tracer.durations_ms name) in
  let records = Tracer.count "replay.record.probe" + Tracer.count "replay.record.hardened" in
  let per n x = x /. float_of_int (max 1 n) in
  [
    metric "replay.record_ms_per_run" "ms"
      (per records (total "replay.record.probe" +. total "replay.record.hardened"));
    metric "replay.minimize_ms_per_finding" "ms" (per c.unique (total "replay.minimize" /. 2.));
    metric "replay.minimize_tests_per_finding" "count" (per c.unique (float_of_int c.ddmin_tests));
    metric "obs.signature_us" "us" (1000. *. median (Tracer.durations_ms "obs.signature"));
    metric "campaign.findings" "count" (float_of_int c.findings);
    metric "campaign.unique_findings" "count" (float_of_int c.unique);
    metric "campaign.dedupe_ratio" "x" (per c.unique (float_of_int c.findings));
    metric "campaign.ddmin_tests" "count" (float_of_int c.ddmin_tests);
  ]
