(* Schedule record-and-replay: a recorded decision stream must replay
   bit-for-bit — same outcome, outputs, step/instruction/rollback counts
   and serialized JSONL telemetry — on all three engines, over the whole
   bugbench catalog (both variants), original and hardened, under both
   scheduling policies. Logs are engine-interchangeable: record on any
   engine, replay on any other, zero divergence. Divergence must surface
   as a structured error, and the minimizer must shrink failing
   schedules to strictly fewer preemptions that still reproduce the same
   failure, deterministically. *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Ref_machine = Conair.Runtime.Ref_machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Sched = Conair.Runtime.Sched
module Trace = Conair.Runtime.Trace
module Outcome = Conair.Runtime.Outcome
module Json = Conair.Obs.Json
module Coverage = Conair.Obs.Coverage
module Jsonl = Conair.Obs.Jsonl
module Registry = Conair_bugbench.Registry
module Spec = Conair_bugbench.Bench_spec
module Replay = Conair.Replay
module Log = Replay.Log
module Recorder = Replay.Recorder
module Feed = Replay.Feed
module Driver = Replay.Driver
module Inspect = Replay.Inspect
module Minimize = Replay.Minimize

let case name f = Alcotest.test_case name `Quick f
let config policy = { Machine.default_config with policy; fuel = 200_000 }

let corpus () =
  List.concat_map
    (fun (s : Spec.t) ->
      let buggy = s.make ~variant:Spec.Buggy ~oracle:true in
      let clean = s.make ~variant:Spec.Clean ~oracle:false in
      [
        (s.info.name ^ "/buggy", buggy.program);
        (s.info.name ^ "/clean", clean.program);
      ])
    (Registry.all @ Registry.extended)

let policies =
  [ ("round-robin", Sched.Round_robin); ("random", Sched.Random 42) ]

(* ------------------------------------------------------------------ *)
(* Recording and replaying with the trace sink attached, so the        *)
(* byte-identity check extends to the serialized telemetry             *)
(* ------------------------------------------------------------------ *)

let jsonl sink = String.concat "\n" (Jsonl.events_to_lines (Trace.events sink))

let record_traced config ?meta p =
  let sink = Trace.create () in
  let r =
    Conair.Replay.Runner.exec ~engine:Engine.Fast ~config ?meta
      ~hooks:(Hooks.bundle ~trace:sink ()) ~ident:(Log.ident "test")
      ~record:true p
  in
  (Option.get r.log, jsonl sink)

let replay_traced engine ?meta p (log : Log.t) =
  let config = log.Log.config in
  let sink = Trace.create () in
  let h = Feed.strict log.Log.decisions in
  let m =
    Engine.create ~config ?meta
      ~hooks:(Hooks.bundle ~trace:sink ~feed:(Feed.strict_decide h) ())
      engine p
  in
  let outcome = Engine.run m in
  ( {
      Driver.rb_outcome = outcome;
      rb_outputs = Engine.outputs m;
      rb_stats = Engine.stats m;
      rb_steps = Engine.steps m;
    },
    jsonl sink )

(* Record [p] once, then insist all three engines replay it
   byte-for-byte: trailer check plus identical serialized JSONL event
   logs. *)
let check_roundtrip name config ?meta p =
  let log, recorded_jsonl = record_traced config ?meta p in
  List.iter
    (fun engine ->
      let ename = Driver.engine_name engine in
      let bundle, replayed_jsonl = replay_traced engine ?meta p log in
      (match Driver.check log bundle with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s (%s replay): %s" name ename e);
      Alcotest.(check string)
        (name ^ " (" ^ ename ^ " replay): JSONL telemetry")
        recorded_jsonl replayed_jsonl)
    [ Driver.Ref; Driver.Fast; Driver.Block ]

let sweep_original (pname, policy) () =
  List.iter
    (fun (name, p) -> check_roundtrip (name ^ "@" ^ pname) (config policy) p)
    (corpus ())

let sweep_hardened (pname, policy) () =
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          let meta = Machine.meta_of_harden h.Conair.hardened in
          check_roundtrip
            (name ^ "/hardened@" ^ pname)
            ~meta (config policy) h.Conair.hardened.program)
    (corpus ())

(* Recording on any engine and replaying on any other must agree: the
   log is engine-independent. Every ordered pair of distinct engines —
   notably record-on-block replayed on fast/ref and vice versa. *)
let cross_engine () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  List.iter
    (fun (rec_engine, replay_engine) ->
      let pair =
        Driver.engine_name rec_engine ^ "->" ^ Driver.engine_name replay_engine
      in
      let _, log =
        Driver.record ~engine:rec_engine
          ~config:(config Sched.Round_robin)
          ~ident:(Log.ident "hawknl") inst.program
      in
      Alcotest.(check string)
        (pair ^ ": log names the recording engine")
        (Driver.engine_name rec_engine)
        log.Log.engine;
      match Driver.replay ~engine:replay_engine ~program:inst.program log with
      | Error e ->
          Alcotest.failf "cross-engine replay (%s): %s" pair
            (Driver.error_to_string e)
      | Ok b -> (
          match Driver.check log b with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cross-engine (%s): %s" pair e))
    (List.concat_map
       (fun r -> List.filter_map
          (fun p -> if p <> r then Some (r, p) else None)
          [ Driver.Ref; Driver.Fast; Driver.Block ])
       [ Driver.Ref; Driver.Fast; Driver.Block ])

(* ------------------------------------------------------------------ *)
(* The facade: run_recorded on a hardened program, replay resolving    *)
(* program and recovery metadata from the log alone                    *)
(* ------------------------------------------------------------------ *)

let facade_self_contained () =
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  let run, log =
    Conair.run_recorded ~config:(config (Sched.Random 7)) h
  in
  Alcotest.(check string) "mode rides in the ident" "survival"
    log.Log.ident.Log.id_mode;
  Alcotest.(check bool) "recovery fired while recording" true
    (run.Conair.stats.rollbacks > 0);
  (* no program, no meta: both come back out of the log *)
  match Conair.replay log with
  | Error e -> Alcotest.failf "facade replay: %s" (Driver.error_to_string e)
  | Ok b ->
      (match Driver.check log b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "facade replay: %s" e);
      Alcotest.(check int) "rollbacks reproduced"
        run.Conair.stats.rollbacks b.Driver.rb_stats.rollbacks

let save_load_roundtrip () =
  let spec = Option.get (Registry.find "SQLite") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident ~oracle:true "sqlite") inst.program
  in
  let path = Filename.temp_file "conair-sched" ".sched.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Log.save log path;
      match Log.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok log' ->
          Alcotest.(check string) "app" log.Log.ident.Log.id_app
            log'.Log.ident.Log.id_app;
          Alcotest.(check bool) "decisions survive" true
            (log.Log.decisions = log'.Log.decisions);
          Alcotest.(check bool) "preemptions survive" true
            (log.Log.preemptions = log'.Log.preemptions);
          Alcotest.(check bool) "trailer survives" true
            ( log.Log.steps = log'.Log.steps
            && log.Log.instrs = log'.Log.instrs
            && log.Log.outcome = log'.Log.outcome
            && log.Log.outputs = log'.Log.outputs );
          (* and the loaded log is self-contained: replayable as-is *)
          (match Conair.replay log' with
          | Error e ->
              Alcotest.failf "loaded replay: %s" (Driver.error_to_string e)
          | Ok b -> (
              match Driver.check log' b with
              | Ok () -> ()
              | Error e -> Alcotest.failf "loaded replay: %s" e)))

(* ------------------------------------------------------------------ *)
(* Divergence detection                                                *)
(* ------------------------------------------------------------------ *)

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let tutorial_program () =
  let path =
    if Sys.file_exists "../examples/tutorial.mir" then
      "../examples/tutorial.mir"
    else "examples/tutorial.mir"
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "tutorial.mir: %a" Parse.pp_error e

let recorded_tutorial () =
  let p = tutorial_program () in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "tutorial") p
  in
  (p, log)

let divergence_tampered () =
  let p, log = recorded_tutorial () in
  let k = Array.length log.Log.decisions / 2 in
  let decisions = Array.copy log.Log.decisions in
  decisions.(k) <- 999 (* never an eligible tid *);
  match Conair.replay ~program:p { log with Log.decisions } with
  | Ok _ -> Alcotest.fail "tampered log replayed cleanly"
  | Error (Driver.Diverged d) ->
      Alcotest.(check int) "divergence names the decision" k d.Driver.dv_decision;
      Alcotest.(check (option int)) "and the recorded tid" (Some 999)
        d.Driver.dv_expected;
      Alcotest.(check bool) "and the eligible set" true
        (d.Driver.dv_actual <> [])
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)

let divergence_truncated () =
  let p, log = recorded_tutorial () in
  let k = Array.length log.Log.decisions / 2 in
  let decisions = Array.sub log.Log.decisions 0 k in
  match Conair.replay ~program:p { log with Log.decisions } with
  | Ok _ -> Alcotest.fail "truncated log replayed cleanly"
  | Error (Driver.Diverged d) ->
      Alcotest.(check int) "exhausted exactly at the cut" k
        d.Driver.dv_decision;
      Alcotest.(check (option int)) "log-exhausted is expected=None" None
        d.Driver.dv_expected
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)

let divergence_leftover () =
  let p, log = recorded_tutorial () in
  let decisions = Array.append log.Log.decisions [| 0; 0; 0 |] in
  match Conair.replay ~program:p { log with Log.decisions } with
  | Ok _ -> Alcotest.fail "padded log replayed cleanly"
  | Error (Driver.Diverged d) ->
      Alcotest.(check int) "leftover decisions detected"
        (Array.length log.Log.decisions)
        d.Driver.dv_decision
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)

(* The block engine retires a forced run — consecutive decisions with one
   eligible thread — under one feed call, bounded by what the strict feed
   admits. A mismatch planted inside such a run must still surface at the
   same decision ordinal, with the same payload, on every engine. Planted
   three ways in the longest run of MySQL1's hardened recording: a
   foreign tid, a tid that exists but is not the eligible one, and a cut
   that exhausts the log mid-run. *)
let divergence_inside_forced_run () =
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  let _, log = Conair.run_recorded ~config:(config (Sched.Random 7)) h in
  let d = log.Log.decisions in
  (* the longest run of equal decisions *)
  let best = ref (0, 0) and start = ref 0 in
  Array.iteri
    (fun i tid ->
      if i > 0 && tid <> d.(i - 1) then start := i;
      if i - !start + 1 > snd !best then best := (!start, i - !start + 1))
    d;
  let run_start, run_len = !best in
  Alcotest.(check bool) "the recording has a long forced run" true
    (run_len > 100);
  let k = run_start + (run_len / 2) in
  let other = Array.fold_left (fun acc t -> if t <> d.(k) then t else acc) d.(k) d in
  Alcotest.(check bool) "the recording has another thread" true (other <> d.(k));
  let planted f =
    let d' = Array.copy d in
    f d';
    { log with Log.decisions = d' }
  in
  List.iter
    (fun (what, log', at) ->
      let outcome engine =
        match Conair.replay ~engine log' with
        | Ok _ -> Alcotest.failf "%s: replayed cleanly on %s" what (Engine.name engine)
        | Error (Driver.Diverged dv) -> dv
        | Error e -> Alcotest.failf "%s: wrong error: %s" what (Driver.error_to_string e)
      in
      let r = outcome Engine.Ref in
      Alcotest.(check int) (what ^ ": ordinal") at r.Driver.dv_decision;
      List.iter
        (fun engine ->
          let e = outcome engine in
          let name = what ^ " on " ^ Engine.name engine in
          Alcotest.(check int) (name ^ ": ordinal") r.Driver.dv_decision e.Driver.dv_decision;
          Alcotest.(check int) (name ^ ": step") r.Driver.dv_step e.Driver.dv_step;
          Alcotest.(check (option int)) (name ^ ": expected") r.Driver.dv_expected e.Driver.dv_expected;
          Alcotest.(check (list int)) (name ^ ": eligible") r.Driver.dv_actual e.Driver.dv_actual;
          Alcotest.(check string) (name ^ ": reason") r.Driver.dv_reason e.Driver.dv_reason)
        [ Engine.Fast; Engine.Block ])
    [
      ("foreign tid", planted (fun d' -> d'.(k) <- 999), k);
      ("ineligible tid", planted (fun d' -> d'.(k) <- other), k);
      ("log cut mid-run", { log with Log.decisions = Array.sub d 0 k }, k);
    ]

(* The recorder keeps one byte per decision while every tid fits and
   widens for good when one does not: streams on both sides of the
   switch, preemption classification included, come back intact. *)
let wide_recording () =
  let r = Recorder.create () in
  let feed (chosen, eligible) =
    let a = Array.of_list eligible in
    Recorder.tap r ~chosen ~tid_of:(Array.get a) (Array.length a)
  in
  List.iter feed [ (0, [ 0 ]); (1, [ 0; 1 ]); (1, [ 1 ]) ];
  Recorder.tap_run r ~tid:1 3;
  List.iter feed [ (300, [ 1; 300 ]); (1, [ 1 ]); (300, [ 300 ]) ];
  Recorder.tap_run r ~tid:300 2;
  List.iter feed [ (2, [ 2; 300 ]) ];
  r

let wide_decisions = [| 0; 1; 1; 1; 1; 1; 300; 1; 300; 300; 300; 2 |]
let wide_preemptions = [| 1; 6; 11 |]

let recorder_wide_tids () =
  let r = wide_recording () in
  Alcotest.(check (array int)) "decisions" wide_decisions
    (Recorder.decisions r);
  Alcotest.(check (array int)) "preemptions" wide_preemptions
    (Recorder.preemptions r);
  Alcotest.(check int) "count" 12 (Recorder.count r)

(* The recorder's signature, streamed off its byte buffer, is
   [Coverage.signature] of the arrays it records: every catalog app
   under round-robin and ten seeded schedules on all three engines (the
   ref engine taps through the list-based [Sched.choose], fast and block
   through the index view), an empty recording, and the widening
   fixture's eight-byte entries. *)
let recorder_signature_streams () =
  let orders = [ ("global:x", "t0w@b;t1r@c;") ] in
  let check name r =
    Alcotest.(check string) name
      (Coverage.signature ~context:"ctx" ~orders
         ~decisions:(Recorder.decisions r)
         ~preemptions:(Recorder.preemptions r) ())
      (Recorder.signature ~context:"ctx" ~orders r)
  in
  List.iter
    (fun (s : Spec.t) ->
      let p = (s.make ~variant:Spec.Buggy ~oracle:true).program in
      List.iter
        (fun policy ->
          List.iter
            (fun engine ->
              let r = Recorder.create () in
              let m =
                Engine.create ~config:(config policy) ~hooks:(Recorder.hooks r)
                  engine p
              in
              ignore (Engine.run m : Outcome.t);
              check
                (Printf.sprintf "%s, %s, %s" s.info.name
                   (match policy with
                   | Sched.Round_robin -> "round-robin"
                   | Sched.Random n -> Printf.sprintf "random:%d" n)
                   (Engine.name engine))
                r)
            Engine.all)
        (Sched.Round_robin :: List.init 10 (fun i -> Sched.Random (i + 1))))
    (Registry.all @ Registry.extended);
  check "empty recording" (Recorder.create ());
  let r = wide_recording () in
  check "widened recording" r;
  Alcotest.(check string) "widened recording, against its stream"
    (Coverage.signature ~decisions:wide_decisions
       ~preemptions:wide_preemptions ())
    (Recorder.signature r)

let wrong_program () =
  let _, log = recorded_tutorial () in
  let spec = Option.get (Registry.find "FFT") in
  let other = (spec.make ~variant:Spec.Clean ~oracle:false).program in
  match Conair.replay ~program:other log with
  | Error (Driver.Program_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "mismatched program replayed"

(* ------------------------------------------------------------------ *)
(* Time-travel inspection                                              *)
(* ------------------------------------------------------------------ *)

let inspector_states () =
  let _, log = recorded_tutorial () in
  let make stride =
    match Inspect.create ~stride log with
    | Ok t -> t
    | Error e -> Alcotest.failf "inspect: %s" e
  in
  let coarse = make Inspect.default_stride and fine = make 16 in
  let final = Inspect.final_step coarse in
  Alcotest.(check int) "final step matches the trailer" log.Log.steps final;
  let state t target =
    match Inspect.state_at t target with
    | Ok j -> Json.to_string j
    | Error e -> Alcotest.failf "state at %d: %s" target e
  in
  (* waypoint-restored reconstruction must be independent of the
     waypoint stride: every step's state is a pure function of the log *)
  List.iter
    (fun target ->
      Alcotest.(check string)
        (Printf.sprintf "state at step %d" target)
        (state coarse target) (state fine target))
    [ 0; 1; final / 3; final / 2; final - 1; final ];
  (* seeking backwards after seeking forwards lands on the same bytes *)
  let late = state coarse final in
  let early = state coarse 1 in
  Alcotest.(check string) "re-seek forward" late (state coarse final);
  Alcotest.(check string) "re-seek backward" early (state coarse 1)

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

let minimize_ok log =
  match Conair.minimize log with
  | Ok m -> m
  | Error e -> Alcotest.failf "minimize: %s" e

(* The failing schedule must shrink to strictly fewer preemptions (the
   round-robin recording switches on every decision, almost all of them
   irrelevant), still fail the same way, replay strictly, and be
   deterministic: two minimizations of the same log, same bytes. *)
let check_minimized name (log : Log.t) =
  let m = minimize_ok log in
  Alcotest.(check bool)
    (name ^ ": strictly fewer preemptions "
    ^ Printf.sprintf "(%d -> %d)" m.Minimize.mn_original
        m.Minimize.mn_minimized)
    true
    (m.Minimize.mn_minimized < m.Minimize.mn_original
    || m.Minimize.mn_original = 0);
  Alcotest.(check bool)
    (name ^ ": minimized run still fails the same way")
    true
    (Minimize.same_failure log.Log.outcome m.Minimize.mn_log.Log.outcome);
  (match Conair.replay m.Minimize.mn_log with
  | Error e ->
      Alcotest.failf "%s: minimized log replay: %s" name
        (Driver.error_to_string e)
  | Ok b -> (
      match Driver.check m.Minimize.mn_log b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: minimized log replay: %s" name e));
  let m' = minimize_ok log in
  Alcotest.(check string)
    (name ^ ": minimization is deterministic")
    (Json.to_string (Minimize.to_json m))
    (Json.to_string (Minimize.to_json m'));
  m

let minimize_tutorial () =
  let _, log = recorded_tutorial () in
  Alcotest.(check bool) "tutorial fails unhardened" false
    (Outcome.is_success log.Log.outcome);
  let m = check_minimized "tutorial" log in
  (* golden: the tutorial bug needs NO preemption at all — the buggy
     variant's injected sleep already forces the audit thread to read
     between the two halves of the unprotected update, so every one of
     the recording's preemptive switches is scheduling noise *)
  Alcotest.(check int) "recorded preemptions" 4 m.Minimize.mn_original;
  Alcotest.(check int) "tutorial minimal schedule" 0 m.Minimize.mn_minimized;
  (* the explanation still walks the (forced) context switches *)
  Alcotest.(check int) "switches rendered" 3
    (List.length m.Minimize.mn_switches);
  Alcotest.(check bool) "all of them forced" true
    (List.for_all
       (fun s -> not s.Minimize.sw_preemptive)
       m.Minimize.mn_switches);
  (* and the detector, replaying the minimized schedule, names the race *)
  match m.Minimize.mn_races with
  | None -> Alcotest.fail "no detector report on the minimized schedule"
  | Some r ->
      Alcotest.(check int) "detector fires on the minimized schedule" 1
        (List.length r.Conair.Race.Report.races)

(* HawkNL's deadlock hang: the lock-order inversion is likewise forced
   by the injected sleeps, so the minimal preemption set is empty — and
   the minimized schedule still ends blocked. *)
let minimize_hawknl () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "hawknl") inst.program
  in
  (match log.Log.outcome with
  | Outcome.Hang _ -> ()
  | o -> Alcotest.failf "expected a hang, got %s" (Outcome.to_string o));
  let m = check_minimized "hawknl" log in
  Alcotest.(check int) "recorded preemptions" 4 m.Minimize.mn_original;
  Alcotest.(check int) "hawknl minimal schedule" 0 m.Minimize.mn_minimized;
  match m.Minimize.mn_log.Log.outcome with
  | Outcome.Hang _ -> ()
  | o -> Alcotest.failf "minimized outcome: %s" (Outcome.to_string o)

(* MySQL1 is the counterpoint: its wrong-output bug genuinely needs two
   preemptions beyond the forced switches — ddmin keeps exactly those. *)
let minimize_mysql1 () =
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "mysql1") inst.program
  in
  let m = check_minimized "mysql1" log in
  Alcotest.(check int) "recorded preemptions" 6 m.Minimize.mn_original;
  Alcotest.(check int) "mysql1 minimal schedule" 2 m.Minimize.mn_minimized;
  let pre =
    List.filter (fun s -> s.Minimize.sw_preemptive) m.Minimize.mn_switches
  in
  Alcotest.(check bool) "the preemptive switches are explained" true
    (pre <> []
    && List.for_all
         (fun s ->
           s.Minimize.sw_from_at <> "" && s.Minimize.sw_to_at <> "")
         pre)

let minimize_failing_catalog () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:true in
      let _, log =
        Conair.record_run
          ~config:(config Sched.Round_robin)
          ~ident:(Log.ident s.info.name) inst.program
      in
      if not (Outcome.is_success log.Log.outcome) then
        ignore (check_minimized s.info.name log))
    (Registry.all @ Registry.extended)

let minimize_rejects_success () =
  let spec = Option.get (Registry.find "FFT") in
  let inst = spec.make ~variant:Spec.Clean ~oracle:false in
  let _, log =
    Conair.record_run ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "fft") inst.program
  in
  match Conair.minimize log with
  | Ok _ -> Alcotest.fail "minimized a successful run"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Hostile input: the codec is the log's validator                     *)
(* ------------------------------------------------------------------ *)

(* A real HawkNL log (12 decisions, 4 preemptions) with the trailer's
   preemption ordinals broken in turn: outside [0, decisions), out of
   order, repeated. *)
let hostile_logs () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:false in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "HawkNL") inst.program
  in
  let lines = Log.to_lines log in
  let n = Array.length log.Log.decisions in
  let pre = Array.to_list log.Log.preemptions in
  Alcotest.(check bool) "the log has preemptions to mutate" true
    (List.length pre >= 2);
  let with_preemptions ps =
    List.mapi
      (fun i line ->
        if i < List.length lines - 1 then line
        else
          match Json.of_string line with
          | Ok (Json.Obj fields) ->
              Json.to_string
                (Json.Obj
                   (List.map
                      (fun (k, v) ->
                        if k = "preemptions" then
                          (k, Json.List (List.map (fun p -> Json.Int p) ps))
                        else (k, v))
                      fields))
          | _ -> Alcotest.fail "sched_end is not an object")
      lines
  in
  ( lines,
    [
      ("preemption at the decision count", with_preemptions (pre @ [ n ]));
      ("negative preemption", with_preemptions (-1 :: pre));
      ("preemptions out of order", with_preemptions (List.rev pre));
      ("repeated preemption", with_preemptions (List.hd pre :: pre));
    ] )

let hostile_logs_rejected () =
  let lines, mutants = hostile_logs () in
  (match Log.of_lines lines with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unmutated log rejected: %s" e);
  List.iter
    (fun (what, lines) ->
      match Log.of_lines lines with
      | Ok _ -> Alcotest.failf "%s: decoder accepted the log" what
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e))
    mutants

let suites =
  [
    ( "replay.identity",
      List.map
        (fun ((pname, _) as pol) ->
          case ("record/replay: original programs, " ^ pname)
            (sweep_original pol))
        policies
      @ List.map
          (fun ((pname, _) as pol) ->
            case ("record/replay: hardened programs, " ^ pname)
              (sweep_hardened pol))
          policies
      @ [
          case "cross-engine logs" cross_engine;
          case "facade: hardened record, self-contained replay"
            facade_self_contained;
          case "save/load round trip" save_load_roundtrip;
          case "recorder widens past one-byte tids" recorder_wide_tids;
          case "recorder signature streams Coverage.signature"
            recorder_signature_streams;
        ] );
    ( "replay.divergence",
      [
        case "tampered decision" divergence_tampered;
        case "truncated log" divergence_truncated;
        case "leftover decisions" divergence_leftover;
        case "wrong program" wrong_program;
        case "mismatch inside a forced run, every engine"
          divergence_inside_forced_run;
      ] );
    ( "replay.hostile",
      [ case "decoder rejects bad preemption ordinals" hostile_logs_rejected ]
    );
    ("replay.inspect", [ case "stride-independent states" inspector_states ]);
    ( "replay.minimize",
      [
        case "tutorial golden" minimize_tutorial;
        case "hawknl golden" minimize_hawknl;
        case "mysql1 golden" minimize_mysql1;
        case "every failing catalog app shrinks" minimize_failing_catalog;
        case "successful runs are rejected" minimize_rejects_success;
      ] );
  ]
