(* Flight recorder and post-mortem diagnostic bundles (lib/runtime
   Flight_ring, lib/obs Flight, lib/replay Runner and Bundle).

   Four layers: ring wraparound exactness against the full recorder
   (the retained tail must be the exact suffix of the recorded decision
   stream — on both the fast and block engines, holding the block
   engine's bulk window accounting to the same stream); cross-engine
   byte-identity of dumped bundles over the bugbench catalog; the
   bundle -> regenerate -> replay -> minimize round trip, including a
   wrapped ring and tamper rejection; and the zero-cost-when-off
   differential (attaching the recorder never changes a run). The
   flight.docs suite pins the post-mortem walkthrough of
   docs/TUTORIAL.md. *)

open Test_util
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Outcome = Conair.Runtime.Outcome
module Flight_ring = Conair.Runtime.Flight_ring
module Flight = Conair.Obs.Flight
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Replay = Conair.Replay
module Log = Replay.Log
module Recorder = Replay.Recorder
module Bundle = Replay.Bundle
module Runner = Replay.Runner
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

(* --- helpers ------------------------------------------------------- *)

(* the fuel the CLI's @flight gate uses for the failing unhardened runs *)
let config = { Machine.default_config with fuel = 200_000 }

let spec name =
  match Registry.find name with
  | None -> Alcotest.failf "no bugbench app named %s" name
  | Some s -> s

let instance name variant =
  let s = spec name in
  s.Spec.make ~variant ~oracle:s.Spec.info.needs_oracle

let ident name =
  let s = spec name in
  Log.ident ~oracle:s.Spec.info.needs_oracle name

let ints = Alcotest.(array int)

(* The bundle of one flight-recorded run of [p]. *)
let capture ?engine p name =
  let r = Runner.exec ?engine ~config ~ident:(ident name) ~flight:true p in
  Lazy.force (Option.get r.Runner.bundle)

(* Run [p] once on [engine] with a flight ring of [cap] decisions and a
   full recorder tapping the same scheduler, so the ring's retained tail
   can be checked against ground truth. *)
let ring_vs_recorder ?cap engine p =
  let ring = Flight_ring.create ?cap () in
  let r = Recorder.create () in
  let _m, _out =
    Engine.run_program ~config
      ~hooks:(Hooks.bundle ~flight:ring ~tap:(Recorder.tap r) ())
      engine p
  in
  (ring, r)

let check_exact_suffix ring r =
  let decisions = Recorder.decisions r in
  let total = Flight_ring.total ring in
  Alcotest.(check int) "ring total = recorder count" (Recorder.count r) total;
  let first = Flight_ring.tail_first ring in
  Alcotest.(check int) "tail_first"
    (max 0 (total - Flight_ring.capacity ring))
    first;
  Alcotest.check ints "tail is the exact decision suffix"
    (Array.sub decisions first (total - first))
    (Flight_ring.tail ring);
  let expected_preemptions =
    Array.of_list
      (List.filter (fun o -> o >= first)
         (Array.to_list (Recorder.preemptions r)))
  in
  Alcotest.check ints "tail preemptions are the recorder's, filtered"
    expected_preemptions
    (Flight_ring.tail_preemptions ring)

(* --- ring wraparound exactness ------------------------------------- *)

(* HawkNL's deadlock takes 12 decisions: everything is retained and the
   tail must equal the whole recorded stream. *)
let ring_full_retention () =
  let inst = instance "HawkNL" Spec.Buggy in
  let ring, r = ring_vs_recorder Engine.Fast inst.Spec.program in
  Alcotest.(check int) "nothing evicted" 0 (Flight_ring.tail_first ring);
  check_exact_suffix ring r

(* MySQL1's wrong-output needs 17527 decisions; with a 512-entry ring
   the tail wraps ~34 times and must still be the exact suffix. *)
let ring_wraparound () =
  let inst = instance "MySQL1" Spec.Buggy in
  let ring, r = ring_vs_recorder ~cap:512 Engine.Fast inst.Spec.program in
  Alcotest.(check bool) "ring actually wrapped" true
    (Flight_ring.tail_first ring > 0);
  check_exact_suffix ring r

(* A pathologically small ring still retains an exact (tiny) suffix. *)
let ring_tiny () =
  let inst = instance "HawkNL" Spec.Buggy in
  let ring, r = ring_vs_recorder ~cap:5 Engine.Fast inst.Spec.program in
  Alcotest.(check int) "five retained" 5
    (Array.length (Flight_ring.tail ring));
  check_exact_suffix ring r

(* The block engine accounts compiled windows in bulk (push_run); its
   ring must agree entry-for-entry with the fast engine's, which pushes
   one decision at a time. The ring alone, so nothing but the ring's
   own bulk path is under test. *)
let ring_block_bulk_accounting () =
  let inst = instance "MySQL1" Spec.Buggy in
  let run engine =
    let ring = Flight_ring.create ~cap:512 () in
    let _m, _out =
      Engine.run_program ~config
        ~hooks:(Hooks.bundle ~flight:ring ())
        engine inst.Spec.program
    in
    ring
  in
  let fast = run Engine.Fast and block = run Engine.Block in
  Alcotest.(check int) "same total" (Flight_ring.total fast)
    (Flight_ring.total block);
  Alcotest.(check int) "same tail_first" (Flight_ring.tail_first fast)
    (Flight_ring.tail_first block);
  Alcotest.check ints "same tail" (Flight_ring.tail fast)
    (Flight_ring.tail block);
  Alcotest.check ints "same preemptions" (Flight_ring.tail_preemptions fast)
    (Flight_ring.tail_preemptions block);
  Alcotest.(check bool) "same events" true
    (Flight_ring.events fast = Flight_ring.events block)

(* --- cross-engine byte-identity over the catalog ------------------- *)

(* Every buggy catalog app must dump byte-identical bundles on all three
   engines, modulo the "engine" field itself. *)
let bundles_cross_engine () =
  List.iter
    (fun (s : Spec.t) ->
      let name = s.Spec.info.name in
      let inst = s.Spec.make ~variant:Spec.Buggy ~oracle:s.Spec.info.needs_oracle in
      let dump engine = capture ~engine inst.Spec.program name in
      let normalized b = Flight.to_string { b with Flight.fb_engine = "-" } in
      let bundles = List.map dump Engine.all in
      (match bundles with
      | [ r; f; k ] ->
          Alcotest.(check string) (name ^ ": engine fields") "ref fast block"
            (String.concat " "
               [ r.Flight.fb_engine; f.Flight.fb_engine; k.Flight.fb_engine ])
      | _ -> Alcotest.fail "three engines expected");
      match List.map normalized bundles with
      | first :: rest ->
          List.iteri
            (fun i other ->
              Alcotest.(check string)
                (Printf.sprintf "%s: bundle identical on engine %d" name (i + 1))
                first other)
            rest
      | [] -> Alcotest.fail "no bundles")
    Registry.all

(* Bundles survive the JSON codec byte-for-byte, for both a fully
   retained and a wrapped ring. *)
let bundle_json_roundtrip () =
  List.iter
    (fun name ->
      let inst = instance name Spec.Buggy in
      let b = capture inst.Spec.program name in
      match Flight.of_string (Flight.to_string b) with
      | Error e -> Alcotest.failf "%s: decode failed: %s" name e
      | Ok b' ->
          Alcotest.(check string) (name ^ ": codec round trip")
            (Flight.to_string b) (Flight.to_string b');
          Alcotest.(check string) (name ^ ": md5 of embedded text")
            b.Flight.fb_program_md5
            (match b'.Flight.fb_program_text with
            | Some src -> Digest.to_hex (Digest.string src)
            | None -> "no embedded program"))
    [ "HawkNL"; "MySQL1" ]

(* --- bundle -> regenerate -> replay -> minimize round trip --------- *)

(* The tail is a regeneration recipe: recover a full schedule log from
   the bundle, strict-replay it, and minimize — reaching the same
   preemption count as the full-recording path on the same run. *)
let roundtrip name ~wrapped expect_minimized =
  let inst = instance name Spec.Buggy in
  (* post-mortem path: flight bundle, its ring wrapped or not *)
  let b = capture inst.Spec.program name in
  Alcotest.(check bool) "the ring wrapped" wrapped (b.Flight.fb_tail_first > 0);
  let log =
    match Bundle.recover_log b with
    | Ok log -> log
    | Error e -> Alcotest.failf "recover_log: %s" e
  in
  (match Conair.replay log with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "regenerated log diverged: %s" (Replay.Driver.error_to_string e));
  let m =
    match Conair.minimize log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize: %s" e
  in
  (* full-recording path on the identical deterministic run *)
  let _run, full_log = Conair.record_run ~config ~ident:(ident name) inst.Spec.program in
  let m_full =
    match Conair.minimize full_log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize (full path): %s" e
  in
  Alcotest.(check int) "same preemption count as the full-recording path"
    m_full.Replay.Minimize.mn_minimized m.Replay.Minimize.mn_minimized;
  Alcotest.(check int) "expected minimized preemptions" expect_minimized
    m.Replay.Minimize.mn_minimized;
  match Conair.replay m.Replay.Minimize.mn_log with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "minimized log diverged: %s" (Replay.Driver.error_to_string e)

let roundtrip_full_retention () = roundtrip "HawkNL" ~wrapped:false 0
let roundtrip_wrapped () = roundtrip "MySQL1" ~wrapped:true 2

(* Tampering with the recipe must be rejected, not silently replayed. *)
let regeneration_rejects_tampering () =
  let inst = instance "HawkNL" Spec.Buggy in
  let b = capture inst.Spec.program "HawkNL" in
  let expect_error what b =
    match Bundle.recover_log b with
    | Ok _ -> Alcotest.failf "%s: tampered bundle accepted" what
    | Error _ -> ()
  in
  let tail = Array.copy b.Flight.fb_tail in
  tail.(Array.length tail - 1) <- tail.(Array.length tail - 1) + 1;
  expect_error "flipped tail decision" { b with Flight.fb_tail = tail };
  expect_error "md5 mismatch"
    { b with Flight.fb_program_md5 = String.make 32 '0' };
  expect_error "no embedded program" { b with Flight.fb_program_text = None }

(* --- one run carries every artifact --------------------------------- *)

(* A traced run carrying both the recorder and the ring yields the log
   of a recorder-only run and the bundle of a ring-only run of the same
   subject, byte for byte: every catalog app, unhardened and
   survival-hardened, on all three engines. *)
let single_run_parity () =
  List.iter
    (fun (s : Spec.t) ->
      let name = s.Spec.info.name in
      let inst =
        s.Spec.make ~variant:Spec.Buggy ~oracle:s.Spec.info.needs_oracle
      in
      List.iter
        (fun (mode, subject) ->
          List.iter
            (fun engine ->
              let what =
                Printf.sprintf "%s/%s/%s" name mode (Engine.name engine)
              in
              let run ?hooks ~record ~flight () =
                Conair.run ~config ~engine ?hooks ~ident:(ident name) ~record
                  ~flight subject
              in
              let log r = Log.to_string (Option.get r.Conair.log) in
              let bundle r =
                Flight.to_string (Lazy.force (Option.get r.Conair.bundle))
              in
              let both =
                run
                  ~hooks:
                    (Hooks.bundle ~trace:(Conair.Runtime.Trace.create ()) ())
                  ~record:true ~flight:true ()
              in
              Alcotest.(check string) (what ^ ": log")
                (log (run ~record:true ~flight:false ()))
                (log both);
              Alcotest.(check string) (what ^ ": bundle")
                (bundle (run ~record:false ~flight:true ()))
                (bundle both))
            Engine.all)
        [
          ("none", Conair.Program inst.Spec.program);
          ( "survival",
            Conair.Hardened
              (Conair.harden_exn inst.Spec.program Conair.Survival) );
        ])
    Registry.all

(* --- hostile input: the codec is the validator ---------------------- *)

(* Replace member [key] of object [j] (which must carry it). *)
let set key v = function
  | Json.Obj fields when List.mem_assoc key fields ->
      Json.Obj
        (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
  | _ -> Alcotest.failf "no %S member to mutate" key

let get key j =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "no %S member" key

let in_tail key v j = set "tail" (set key v (get "tail" j)) j
let int_list l = Json.List (List.map (fun n -> Json.Int n) l)

(* A real HawkNL bundle (12 decisions, 4 preemptions, all retained)
   with each decoder invariant broken in turn — the tail window, the
   preemption ordinals, the embedded-program MD5, episode spans, and
   the identity and trailer checks that moved in from json_check. *)
let hostile_bundles () =
  let inst = instance "HawkNL" Spec.Buggy in
  let b = capture inst.Spec.program "HawkNL" in
  let j = Flight.to_json b in
  let total = b.Flight.fb_tail_total in
  let preemptions = Array.to_list b.Flight.fb_tail_preemptions in
  let short_tail =
    Jsonl.sched_chunks (Array.sub b.Flight.fb_tail 0 (total - 1))
  in
  ( j,
    [
      ("negative first", in_tail "first" (Json.Int (-3)) j);
      ("first > total", in_tail "first" (Json.Int (total + 1)) j);
      ("tail one entry short", in_tail "chunks" (Json.List short_tail) j);
      ( "preemption outside the window",
        in_tail "preemptions" (int_list (preemptions @ [ total ])) j );
      ( "preemptions out of order",
        in_tail "preemptions" (int_list (List.rev preemptions)) j );
      ( "bad MD5 with the text present",
        set "program_md5" (Json.String (String.make 32 '0')) j );
      ("empty reason", set "reason" (Json.String "") j);
      ( "negative trailer step count",
        set "trailer" (set "steps" (Json.Int (-1)) (get "trailer" j)) j );
      ( "episode ends before it starts",
        set "episodes"
          (Json.List
             [
               Json.Obj
                 [
                   ("site", Json.Int 0);
                   ("tid", Json.Int 1);
                   ("start", Json.Int 10);
                   ("end", Json.Int 5);
                   ("retries", Json.Int 0);
                 ];
             ])
          j );
    ] )

let hostile_bundles_rejected () =
  let original, mutants = hostile_bundles () in
  (match Flight.of_string (Json.to_string original) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unmutated bundle rejected: %s" e);
  List.iter
    (fun (what, j) ->
      match Flight.of_string (Json.to_string j) with
      | Ok _ -> Alcotest.failf "%s: decoder accepted the bundle" what
      | Error _ -> ())
    mutants

(* Whatever the decoder lets through, regeneration answers with a
   result: decode + recover never raises on the hostile table. *)
let hostile_bundles_never_raise () =
  let _, mutants = hostile_bundles () in
  List.iter
    (fun (what, j) ->
      match
        match Flight.of_string (Json.to_string j) with
        | Error _ -> ()
        | Ok b -> ignore (Bundle.recover_log b)
      with
      | () -> ()
      | exception e ->
          Alcotest.failf "%s: decode + recover raised %s" what
            (Printexc.to_string e))
    mutants

let has_substring s sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
  in
  scan 0

let cli_path () =
  List.find_opt Sys.file_exists
    [ "../bin/conair_cli.exe"; "_build/default/bin/conair_cli.exe" ]

(* The CLI's post-mortem path on a hostile bundle: a structured error
   and exit 1, not an uncaught exception. *)
let cli_rejects_hostile_bundle () =
  match cli_path () with
  | None -> Alcotest.fail "conair_cli.exe not built"
  | Some cli ->
      let _, mutants = hostile_bundles () in
      let bad = List.assoc "negative first" mutants in
      let file = Filename.temp_file "conair-hostile" ".bundle.json" in
      let err = Filename.temp_file "conair-hostile" ".stderr" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file; Sys.remove err)
        (fun () ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Json.to_string bad ^ "\n"));
          let code =
            Sys.command
              (Filename.quote_command cli ~stdout:Filename.null ~stderr:err
                 [ "bundle"; "replay"; file ])
          in
          let msg = In_channel.with_open_text err In_channel.input_all in
          Alcotest.(check int) "bundle replay exits 1" 1 code;
          Alcotest.(check bool)
            (Printf.sprintf "a bundle error on stderr (got %S)" msg)
            true
            (has_substring msg "bundle:"))

(* --- zero cost when off -------------------------------------------- *)

(* Attaching the recorder never changes a run: outcome, outputs and
   stats are identical with no hooks, with an empty hook bundle, and
   with a flight ring installed — on all three engines. *)
let recorder_never_changes_a_run () =
  List.iter
    (fun (name, variant) ->
      let inst = instance name variant in
      List.iter
        (fun engine ->
          let bare = Engine.run_program ~config engine inst.Spec.program in
          let empty =
            Engine.run_program ~config ~hooks:(Hooks.bundle ()) engine
              inst.Spec.program
          in
          let flight =
            Engine.run_program ~config
              ~hooks:(Hooks.bundle ~flight:(Flight_ring.create ()) ())
              engine inst.Spec.program
          in
          let obs (m, out) =
            (out, Engine.outputs m, Engine.steps m, Engine.stats m)
          in
          let label s =
            Printf.sprintf "%s/%s on %s: %s" name
              (match variant with Spec.Buggy -> "buggy" | Spec.Clean -> "clean")
              (Engine.name engine) s
          in
          Alcotest.(check bool) (label "empty hook bundle is a no-op") true
            (obs bare = obs empty);
          Alcotest.(check bool) (label "flight ring is invisible") true
            (obs bare = obs flight))
        Engine.all)
    [ ("HawkNL", Spec.Buggy); ("MySQL1", Spec.Buggy); ("MySQL1", Spec.Clean) ]

(* --- docs/TUTORIAL.md ----------------------------------------------- *)

let tutorial_doc_path () =
  if Sys.file_exists "../docs/TUTORIAL.md" then "../docs/TUTORIAL.md"
  else "docs/TUTORIAL.md"

(* The post-mortem stage of docs/TUTORIAL.md, performed in-process: same
   app, same numbers as the transcript the doc shows. *)
let tutorial_post_mortem_walkthrough () =
  let doc =
    In_channel.with_open_text (tutorial_doc_path ()) In_channel.input_all
  in
  let contains pinned =
    Alcotest.(check bool)
      (Printf.sprintf "the doc shows %S" pinned)
      true
      (let rec scan i =
         i + String.length pinned <= String.length doc
         && (String.sub doc i (String.length pinned) = pinned || scan (i + 1))
       in
       scan 0)
  in
  contains "run HawkNL --no-harden --flight --bundle-out .";
  contains "bundle replay flight_hawknl.bundle.json";
  contains "bundle minimize flight_hawknl.bundle.json";
  contains "12 of 12 decisions retained";
  let inst = instance "HawkNL" Spec.Buggy in
  let run =
    Conair.run ~config ~ident:(ident "HawkNL") ~flight:true
      (Conair.Program inst.Spec.program)
  in
  let b = Lazy.force (Option.get run.Conair.bundle) in
  Alcotest.(check string) "a failed run's bundle says so" "failure"
    b.Flight.fb_reason;
  (* the numbers the doc's transcript shows *)
  Alcotest.(check bool) "the run failed" false
    (Outcome.is_success run.Conair.outcome);
  Alcotest.(check int) "12 decisions, all retained" 12 b.Flight.fb_tail_total;
  Alcotest.(check int) "nothing evicted" 0 b.Flight.fb_tail_first;
  Alcotest.(check int) "4 preemptions in the tail" 4
    (Array.length b.Flight.fb_tail_preemptions);
  Alcotest.(check int) "6 events retained" 6 (List.length b.Flight.fb_events);
  let log =
    match Bundle.recover_log b with
    | Ok log -> log
    | Error e -> Alcotest.failf "recover_log: %s" e
  in
  let m =
    match Conair.minimize log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize: %s" e
  in
  Alcotest.(check (pair int int)) "minimized 4 -> 0 preemptions" (4, 0)
    (m.Replay.Minimize.mn_original, m.Replay.Minimize.mn_minimized);
  Alcotest.(check int) "2 candidate executions" 2 m.Replay.Minimize.mn_tests;
  match m.Replay.Minimize.mn_races with
  | Some r ->
      Alcotest.(check int) "the detector names one lock cycle" 1
        (List.length r.Conair.Race.Report.cycles)
  | None -> Alcotest.fail "no detector report on the minimized schedule"

(* ------------------------------------------------------------------- *)

let suites =
  [
    ( "flight.ring",
      [
        case "full retention matches the recorder" ring_full_retention;
        case "wraparound retains the exact suffix" ring_wraparound;
        case "tiny ring retains the exact suffix" ring_tiny;
        case "block bulk accounting matches fast" ring_block_bulk_accounting;
      ] );
    ( "flight.bundle",
      [
        slow_case "byte-identical across engines (catalog)"
          bundles_cross_engine;
        case "JSON codec round trip" bundle_json_roundtrip;
      ] );
    ( "flight.regen",
      [
        case "full-retention bundle round trip" roundtrip_full_retention;
        slow_case "wrapped bundle round trip" roundtrip_wrapped;
        case "tampered bundles rejected" regeneration_rejects_tampering;
      ] );
    ( "flight.single-run",
      [
        slow_case "one run's log and bundle equal separate runs' (catalog)"
          single_run_parity;
      ] );
    ( "flight.hostile",
      [
        case "decoder rejects every mutation" hostile_bundles_rejected;
        case "decode + recover never raises" hostile_bundles_never_raise;
        case "bundle replay exits 1 on a hostile bundle"
          cli_rejects_hostile_bundle;
      ] );
    ( "flight.off",
      [ slow_case "recorder never changes a run" recorder_never_changes_a_run ] );
    ( "flight.docs",
      [
        slow_case "TUTORIAL.md post-mortem walkthrough"
          tutorial_post_mortem_walkthrough;
      ] );
  ]
