(* The pre-resolved engine ([Machine]) and the block-compiled engine
   ([Block_machine]) against the reference interpreter ([Ref_machine]):
   bit-for-bit semantic identity over the whole bugbench catalog — every
   Table 2 benchmark (buggy and clean), every taxonomy catalog entry,
   every Fig 2 micro pattern — under both scheduling policies, original
   and hardened.

   "Identical" means: outcome, final outputs, step/instruction/idle
   counts, checkpoint and rollback counts, compensation counts, the full
   recovery-episode list (per-site retry stats included), the per-id
   checkpoint-hit table, the complete trace-event stream, and the cost
   profiler's full attribution (per-context flamegraph lines, per-site
   wasted-step charges). It also extends to the serialized artifacts:
   JSONL event logs, race-detector report JSON, and recorded schedule
   logs must match byte for byte across all three engines.

   Each comparison runs twice per engine: once fully hooked (trace sink
   and cost profiler installed) and once bare. The bare pass matters for
   the block engine, whose compiled straight-line windows do not engage
   under the trace sink or the profiler; the recorded-log, detector and
   signature sweeps cover the hooks that do stay on windows (tap, feed,
   race probe). *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Ref_machine = Conair.Runtime.Ref_machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Sched = Conair.Runtime.Sched
module Stats = Conair.Runtime.Stats
module Trace = Conair.Runtime.Trace
module Outcome = Conair.Runtime.Outcome
module Registry = Conair_bugbench.Registry
module Spec = Conair_bugbench.Bench_spec
module Catalog = Conair_bugbench.Catalog
module Micro = Conair_bugbench.Micro_patterns

(* Enough fuel for every benchmark to reach its outcome, small enough to
   bound livelocking configurations. *)
let config policy = { Machine.default_config with policy; fuel = 200_000 }

let outcome_t = Alcotest.testable Outcome.pp ( = )

let sorted_hits tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let check_traces name (ref_sink : Trace.sink) (fast_sink : Trace.sink) =
  let ra = Trace.events ref_sink and fa = Trace.events fast_sink in
  if ra <> fa then begin
    let rec first_diff i a b =
      match (a, b) with
      | [], [] -> None
      | x :: _, [] -> Some (i, Some x, None)
      | [], y :: _ -> Some (i, None, Some y)
      | x :: a', y :: b' ->
          if x = y then first_diff (i + 1) a' b' else Some (i, Some x, Some y)
    in
    match first_diff 0 ra fa with
    | None -> ()
    | Some (i, x, y) ->
        let pp ppf = function
          | None -> Format.fprintf ppf "<end of trace>"
          | Some ev -> Trace.pp_event ppf ev
        in
        Alcotest.failf "%s: traces diverge at event %d:@ reference: %a@ fast: %a"
          name i pp x pp y
  end

let check_stats name (r : Stats.t) (f : Stats.t) =
  let check what = Alcotest.(check int) (name ^ ": " ^ what) in
  check "steps" r.steps f.steps;
  check "instrs" r.instrs f.instrs;
  check "idle" r.idle f.idle;
  check "checkpoints" r.checkpoints f.checkpoints;
  check "rollbacks" r.rollbacks f.rollbacks;
  check "compensated locks" r.compensated_locks f.compensated_locks;
  check "compensated blocks" r.compensated_blocks f.compensated_blocks;
  check "tracecheck violations" r.tracecheck_violations f.tracecheck_violations;
  check "outputs" r.outputs f.outputs;
  if r.episodes <> f.episodes then
    Alcotest.failf "%s: recovery episodes differ (%d vs %d, or per-site stats)"
      name (List.length r.episodes) (List.length f.episodes);
  if sorted_hits r.ckpt_hits <> sorted_hits f.ckpt_hits then
    Alcotest.failf "%s: per-checkpoint hit counts differ" name

module Prof = Conair.Obs.Prof

(* The profile comparison covers the whole attribution model: totals per
   class, per-site rollback waste, and every collapsed-stack line of
   every class. *)
let check_profiles name (rp : Prof.t) (fp : Prof.t) =
  let check what = Alcotest.(check int) (name ^ ": profile " ^ what) in
  check "useful steps" (Prof.useful_steps rp) (Prof.useful_steps fp);
  check "checkpoint steps" (Prof.checkpoint_steps rp)
    (Prof.checkpoint_steps fp);
  check "wasted steps" (Prof.wasted_steps rp) (Prof.wasted_steps fp);
  check "idle steps" (Prof.idle_steps rp) (Prof.idle_steps fp);
  if Prof.site_costs rp <> Prof.site_costs fp then
    Alcotest.failf "%s: per-site wasted-step attribution differs" name;
  List.iter
    (fun kind ->
      Alcotest.(check (list string))
        (name ^ ": collapsed " ^ Prof.kind_name kind)
        (Prof.to_collapsed rp kind)
        (Prof.to_collapsed fp kind))
    [ Prof.Useful; Prof.Checkpoint; Prof.Wasted; Prof.Total ]

(* Everything one hooked run exposes. *)
type observed = {
  o_outcome : Outcome.t;
  o_outputs : string list;
  o_steps : int;
  o_stats : Stats.t;
  o_sink : Trace.sink;
  o_prof : Prof.t;
}

(* One fully-hooked run of [p] on [engine]: trace sink and cost profiler
   installed for the whole execution. *)
let observe engine ?meta config (p : Program.t) =
  let sink = Trace.create () in
  let prof = Prof.create () in
  let m =
    Engine.create ~config ?meta
      ~hooks:(Hooks.bundle ~trace:sink ~profile:(Prof.probe prof) ())
      engine p
  in
  let outcome = Engine.run m in
  Prof.finalize prof;
  {
    o_outcome = outcome;
    o_outputs = Engine.outputs m;
    o_steps = Engine.steps m;
    o_stats = Engine.stats m;
    o_sink = sink;
    o_prof = prof;
  }

(* One bare run: no hooks at all. On the block engine this is the path
   that actually retires compiled straight-line windows. *)
let bare engine ?meta config (p : Program.t) =
  let m = Engine.create ~config ?meta engine p in
  let outcome = Engine.run m in
  (outcome, Engine.outputs m, Engine.steps m, Engine.stats m)

(* The engines measured against the reference interpreter. *)
let engines = [ ("fast", Engine.Fast); ("block", Engine.Block) ]

(* Run [p] through all three engines under identical configuration and
   insist on identical observable behaviour, hooked and bare. *)
let check_same name ?meta config (p : Program.t) =
  let r = observe Engine.Ref ?meta config p in
  let jsonl sink =
    String.concat "\n" (Conair.Obs.Jsonl.events_to_lines (Trace.events sink))
  in
  List.iter
    (fun (ename, engine) ->
      let name = name ^ "#" ^ ename in
      let o = observe engine ?meta config p in
      Alcotest.check outcome_t (name ^ ": outcome") r.o_outcome o.o_outcome;
      Alcotest.(check (list string))
        (name ^ ": outputs") r.o_outputs o.o_outputs;
      Alcotest.(check int) (name ^ ": virtual time") r.o_steps o.o_steps;
      check_stats name r.o_stats o.o_stats;
      check_traces name r.o_sink o.o_sink;
      (* the differential guarantee extends to the serialized telemetry:
         every engine must produce byte-identical JSONL event logs *)
      Alcotest.(check string)
        (name ^ ": serialized JSONL event log")
        (jsonl r.o_sink) (jsonl o.o_sink);
      (* ... and to the cost profiler: identical per-context and per-site
         attribution, down to every flamegraph line *)
      check_profiles name r.o_prof o.o_prof;
      (* the bare run must agree with the hooked reference run too:
         telemetry is observation, never behaviour. The block engine
         compiles a block on its second pass and caches a program's
         code from its second machine on, so its third bare run
         executes every block the program runs in compiled code. *)
      let runs = match engine with Engine.Block -> 3 | _ -> 1 in
      for run = 1 to runs do
        let name = Printf.sprintf "%s/bare#%d" name run in
        let b_outcome, b_outputs, b_steps, b_stats =
          bare engine ?meta config p
        in
        Alcotest.check outcome_t (name ^ ": outcome") r.o_outcome b_outcome;
        Alcotest.(check (list string)) (name ^ ": outputs") r.o_outputs b_outputs;
        Alcotest.(check int) (name ^ ": virtual time") r.o_steps b_steps;
        check_stats name r.o_stats b_stats
      done)
    engines

(* ------------------------------------------------------------------ *)
(* The program corpus: the full bugbench catalog                       *)
(* ------------------------------------------------------------------ *)

let corpus () =
  let of_spec (s : Spec.t) =
    let buggy = s.make ~variant:Spec.Buggy ~oracle:true in
    let clean = s.make ~variant:Spec.Clean ~oracle:false in
    [
      (s.info.name ^ "/buggy", buggy.program);
      (s.info.name ^ "/clean", clean.program);
    ]
  in
  List.concat_map of_spec (Registry.all @ Registry.extended)
  @ List.map
      (fun (e : Catalog.entry) -> ("catalog/" ^ e.name, e.program))
      (Catalog.all ())
  @ List.map
      (fun (pt : Micro.pattern) -> ("micro/" ^ pt.name, pt.program))
      (Micro.all ())

let policies =
  [ ("round-robin", Sched.Round_robin); ("random", Sched.Random 42) ]

let sweep_original (pname, policy) () =
  List.iter
    (fun (name, p) -> check_same (name ^ "@" ^ pname) (config policy) p)
    (corpus ())

let sweep_hardened (pname, policy) () =
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          let meta = Machine.meta_of_harden h.hardened in
          check_same
            (name ^ "/hardened@" ^ pname)
            ~meta (config policy) h.hardened.program)
    (corpus ())

(* The baselines' knobs exercise the remaining engine paths: timing
   perturbation draws on the rng, wait-graph detection changes lock
   eligibility. Both engines must still agree. *)
let sweep_perturbed () =
  let config =
    {
      (config (Sched.Random 7)) with
      perturb_timing = true;
      deadlock_detection = Machine.Wait_graph;
    }
  in
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> check_same (name ^ "@perturbed") config p
      | Ok h ->
          let meta = Machine.meta_of_harden h.hardened in
          check_same (name ^ "/hardened@perturbed") ~meta config
            h.hardened.program)
    (corpus ())

(* The race/deadlock detector's serialized report must match byte for
   byte across the engines: the detector only sees probe events, and
   every engine must emit the same stream. *)
let sweep_detector_reports () =
  let config = config (Sched.Random 42) in
  List.iter
    (fun (name, p) ->
      let report engine =
        let _, rep = Conair.run_detected ~config ~engine (Conair.Program p) in
        Conair.Obs.Json.to_string (Conair.Race.Report.to_json rep)
      in
      let ref_report = report Engine.Ref in
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check string)
            (name ^ "#" ^ ename ^ ": race report JSON")
            ref_report (report engine))
        engines)
    (corpus ())

(* Recorded schedule logs must serialize identically across the engines
   — modulo the engine stamp itself, which names the recorder and is
   checked separately. *)
let sweep_recorded_logs () =
  let config = config (Sched.Random 42) in
  let module Log = Conair.Replay.Log in
  let check_logs name log_of =
    let log_lines engine =
      let log : Log.t = log_of engine in
      Alcotest.(check string)
        (name ^ ": engine stamp")
        (Engine.name engine) log.Log.engine;
      Log.to_lines { log with Log.engine = "fast" }
    in
    let ref_lines = log_lines Engine.Ref in
    List.iter
      (fun (ename, engine) ->
        Alcotest.(check (list string))
          (name ^ "#" ^ ename ^ ": schedule log bytes")
          ref_lines (log_lines engine))
      engines
  in
  List.iter
    (fun (name, p) ->
      check_logs name (fun engine ->
          snd (Conair.record_run ~config ~engine ~ident:(Log.ident name) p));
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          check_logs (name ^ "/hardened") (fun engine ->
              snd
                (Conair.run_recorded ~config ~engine ~ident:(Log.ident name) h)))
    (corpus ())

(* A race probe installed after [create] ([Hooks.install], the escape
   hatch for self-referential hooks) must still see every access on the
   block engine, whose code for a probed run stops at memory accesses. *)
let race_probe_installed_late () =
  let config = config (Sched.Random 42) in
  let module Detect = Conair.Race.Detect in
  let report_json r = Conair.Obs.Json.to_string (Conair.Race.Report.to_json r) in
  List.iter
    (fun (s : Spec.t) ->
      let p = (s.make ~variant:Spec.Buggy ~oracle:true).program in
      let _, expected =
        Conair.run_detected ~config ~engine:Engine.Ref (Conair.Program p)
      in
      let d = Detect.create () in
      let m = Engine.create ~config Engine.Block p in
      Hooks.install (Engine.hooks m)
        (Hooks.bundle ~race:(Detect.probe d) ());
      ignore (Engine.run m : Outcome.t);
      Alcotest.(check string)
        (s.info.name ^ ": race report, probe installed after create")
        (report_json expected)
        (report_json (Detect.report d)))
    (Registry.all @ Registry.extended)

(* The campaign's recording — schedule recorder plus [Obs.Coverage]
   collector — must be engine-independent end to end: the same schedule
   log (decisions, preemptions, trailer; modulo the engine stamp), the
   same observed access orders, points and edges, and so the same
   interleaving signature, the campaign's dedupe key. On the block
   engine this is the hooked-window path: the tap accounted in bulk
   over forced runs, memory accesses as race-probe stoppers. *)
let sweep_signatures () =
  let config = config (Sched.Random 7) in
  let module Log = Conair.Replay.Log in
  let module Coverage = Conair.Obs.Coverage in
  let recorded name engine record =
    let coll = Coverage.collector () in
    let _, log = record ~engine ~race:(Coverage.probe coll) in
    let ob = Coverage.observed coll in
    Alcotest.(check string)
      (name ^ ": engine stamp") (Engine.name engine) log.Log.engine;
    ( Log.to_lines { log with Log.engine = "" },
      Conair.Obs.Json.to_string (Coverage.observed_to_json ob),
      Conair.interleaving_signature ~orders:ob.Coverage.ob_orders log )
  in
  let check_engines name record =
    let ref_log, ref_ob, ref_sig = recorded name Engine.Ref record in
    List.iter
      (fun (ename, engine) ->
        let name = name ^ "#" ^ ename in
        let log, ob, signature = recorded name engine record in
        Alcotest.(check (list string)) (name ^ ": schedule log") ref_log log;
        Alcotest.(check string) (name ^ ": coverage observed") ref_ob ob;
        Alcotest.(check string)
          (name ^ ": interleaving signature")
          ref_sig signature)
      engines
  in
  List.iter
    (fun (name, p) ->
      check_engines name (fun ~engine ~race ->
          Conair.record_run ~config ~engine ~ident:(Log.ident name) ~race p);
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          check_engines (name ^ "/hardened") (fun ~engine ~race ->
              Conair.run_recorded ~config ~engine ~ident:(Log.ident name)
                ~race h))
    (corpus ())

(* The hooked-window path must actually engage: a hooked MySQL1
   recording (tap + coverage probe, as a campaign records) retires at
   least 95% of its steps inside compiled windows — a silent fallback
   to the generic step fails here, not only in the benchmark. *)
let hooked_runs_stay_on_windows () =
  let module Coverage = Conair.Obs.Coverage in
  let module Recorder = Conair.Replay.Recorder in
  let module Block_machine = Conair.Runtime.Block_machine in
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  let record ~run_entry =
    let r = Recorder.create () in
    let bm =
      Block_machine.create
        ~config:(config (Sched.Random 7))
        ~meta:(Machine.meta_of_harden h.hardened)
        ~hooks:
          (Hooks.bundle ~tap:(Recorder.tap r)
             ?tap_run:(if run_entry then Some (Recorder.tap_run r) else None)
             ~race:(Coverage.probe (Coverage.collector ()))
             ())
        h.hardened.program
    in
    ignore (Block_machine.run bm : Outcome.t);
    (bm, r)
  in
  let bm, r = record ~run_entry:true in
  let w = Block_machine.window_steps bm
  and g = Block_machine.generic_steps bm in
  Alcotest.(check bool) "every step is accounted" true
    (w + g <= Block_machine.steps bm && w + g > 0);
  Alcotest.(check int) "the recorder saw every decision"
    (Block_machine.steps bm - (Block_machine.stats bm).Stats.idle)
    (Recorder.count r);
  if 100 * w < 95 * (w + g) then
    Alcotest.failf "only %d of %d steps retired in windows" w (w + g);
  (* a tap without a run entry is told a window's forced decisions one
     at a time after the window: the same stream *)
  let _, r' = record ~run_entry:false in
  Alcotest.(check (array int)) "per-decision tap: decisions"
    (Recorder.decisions r) (Recorder.decisions r');
  Alcotest.(check (array int)) "per-decision tap: preemptions"
    (Recorder.preemptions r) (Recorder.preemptions r')

(* [Sched.choose_idx] must mirror [Sched.choose] pick-for-pick: same
   selections, same cursor movement, same rng consumption. *)
let choose_idx_agrees () =
  List.iter
    (fun policy ->
      let s_list = Sched.create policy in
      let s_idx = Sched.create policy in
      let tid_sets =
        [
          [ 0 ]; [ 0; 1 ]; [ 1; 3; 7 ]; [ 2 ]; [ 0; 1; 2; 3; 4 ]; [ 5; 9 ];
          [ 4; 5; 6 ]; [ 0; 8 ]; [ 3 ]; [ 1; 2; 9; 12 ];
        ]
      in
      List.iter
        (fun tids ->
          let arr = Array.of_list tids in
          let from_list = Sched.choose s_list tids in
          let k =
            Sched.choose_idx s_idx ~tid_of:(fun i -> arr.(i)) (Array.length arr)
          in
          Alcotest.(check int) "same pick" from_list arr.(k);
          Alcotest.(check int)
            "same cursor" s_list.Sched.cursor s_idx.Sched.cursor)
        tid_sets)
    [ Sched.Round_robin; Sched.Random 13 ]

let suites =
  [
    ( "fast-exec",
      List.map
        (fun ((pname, _) as pol) ->
          Alcotest.test_case
            ("differential: original programs, " ^ pname)
            `Quick (sweep_original pol))
        policies
      @ List.map
          (fun ((pname, _) as pol) ->
            Alcotest.test_case
              ("differential: hardened programs, " ^ pname)
              `Quick (sweep_hardened pol))
          policies
      @ [
          Alcotest.test_case "differential: perturbed + wait-graph" `Quick
            sweep_perturbed;
          Alcotest.test_case "differential: race-detector reports" `Quick
            sweep_detector_reports;
          Alcotest.test_case "differential: recorded schedule logs" `Quick
            sweep_recorded_logs;
          Alcotest.test_case "differential: interleaving signatures" `Quick
            sweep_signatures;
          Alcotest.test_case "hooked recording stays on windows" `Quick
            hooked_runs_stay_on_windows;
          Alcotest.test_case "race probe installed after create" `Quick
            race_probe_installed_late;
          Alcotest.test_case "choose_idx mirrors choose" `Quick
            choose_idx_agrees;
        ] );
  ]
