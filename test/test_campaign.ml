(* Schedule-coverage observability and campaign aggregation:
   [Obs.Coverage] signatures and coverage maps, and the [Obs.Campaign]
   fold over worker JSONL streams — in particular the determinism
   properties the campaign leans on: signatures stable across repeated
   recordings, reports byte-identical across coordinator restarts and
   worker orderings. *)

module Json = Conair.Obs.Json
module Coverage = Conair.Obs.Coverage
module Campaign = Conair.Obs.Campaign
module Metrics = Conair.Obs.Metrics
module Sched = Conair.Runtime.Sched
module Machine = Conair.Runtime.Machine
module Gen = Conair_genprog.Genprog

let config = { Machine.default_config with fuel = 300_000 }

(* ---------------- signatures ---------------- *)

let signature_properties () =
  let s ?context ?orders ~preemptions () =
    Coverage.signature ?context ?orders ~decisions:[| 0; 1; 0; 1 |]
      ~preemptions ()
  in
  let base = s ~preemptions:[| 1; 3 |] () in
  Alcotest.(check string)
    "same inputs, same signature" base
    (s ~preemptions:[| 1; 3 |] ());
  Alcotest.(check bool)
    "preemption set matters" false
    (base = s ~preemptions:[| 1 |] ());
  Alcotest.(check bool)
    "context matters" false
    (base = s ~context:"other-app" ~preemptions:[| 1; 3 |] ());
  Alcotest.(check bool)
    "access orders matter" false
    (base = s ~orders:[ ("global:x", "t0w@b;t1r@c;") ] ~preemptions:[| 1; 3 |] ());
  Alcotest.(check int) "MD5 hex digest" 32 (String.length base)

(* The conair-sig-v1 byte format, pinned: these digests were computed
   with the original [Printf]-based formatter, so any change to the
   rendered bytes (a separator, an ordinal, the "|n:"
   count, out-of-range ordinals as -1, negative and extreme values,
   order sorting) fails here. *)
let signature_format_pinned () =
  let check name expected got = Alcotest.(check string) name expected got in
  check "empty decisions" "5d1159f2d5806d7d6f0a621135c9d19d"
    (Coverage.signature ~decisions:[||] ~preemptions:[||] ());
  check "empty decisions with context" "06fc2ffe13bd6e17f68341b05ec93c7d"
    (Coverage.signature ~context:"app" ~decisions:[||] ~preemptions:[||] ());
  check "out-of-range ordinals" "cacc61bb686510dbfab5df66332e9aad"
    (Coverage.signature ~decisions:[| 0; 1; 0 |]
       ~preemptions:[| -2; 0; 3; 7 |] ());
  check "context and orders" "099d049123462b79c50f7915d55342dd"
    (Coverage.signature ~context:"fix-sweep"
       ~orders:[ ("global:y", "t1w@b2;"); ("global:x", "t0w@b;t1r@c;") ]
       ~decisions:[| 0; 1; 0; 1; 12; 130 |]
       ~preemptions:[| 1; 3; 4; 5 |] ());
  check "multi-digit tids" "332c2829767346f359c1d4bb5b3b71d9"
    (Coverage.signature ~decisions:[| 0; 300; 1; 300 |]
       ~preemptions:[| 1; 3 |] ());
  check "negative and extreme values" "71978a46b51d16b1b63f1885676667df"
    (Coverage.signature
       ~decisions:[| min_int; -12; max_int; 1234567 |]
       ~preemptions:[| 1; 2; 3; -45 |] ())

(* The facade signature of a real recorded run is stable across repeated
   recordings — the restart-determinism property at the single-run
   level. *)
let signature_stable_across_recordings () =
  let p = Gen.racy_program (Gen.racy_spec_gen (Random.State.make [| 3 |])) in
  let one () =
    let coll = Coverage.collector () in
    let _, log =
      Conair.record_run
        ~config:{ config with policy = Sched.Random 11 }
        ~ident:(Conair.Replay.Log.ident "sigtest")
        ~race:(Coverage.probe coll) p
    in
    Conair.interleaving_signature
      ~orders:(Coverage.observed coll).Coverage.ob_orders log
  in
  Alcotest.(check string) "recorded twice, same signature" (one ()) (one ())

(* ---------------- the coverage map ---------------- *)

let coverage_map () =
  let cover = Coverage.create () in
  let coll = Coverage.collector () in
  let _, _ =
    Conair.record_run
      ~config:{ config with policy = Sched.Random 5 }
      ~ident:(Conair.Replay.Log.ident "cov")
      ~race:(Coverage.probe coll)
      (Gen.racy_program (Gen.racy_spec_gen (Random.State.make [| 9 |])))
  in
  let ob = Coverage.observed coll in
  Alcotest.(check bool) "observed some points" true (ob.Coverage.ob_points <> []);
  Alcotest.(check (float 1e-9))
    "everything novel on an empty map" 1.
    (Coverage.novelty cover ~app:"racy" ob);
  Coverage.note cover ~app:"racy" ob;
  Alcotest.(check (float 1e-9))
    "nothing novel after noting" 0.
    (Coverage.novelty cover ~app:"racy" ob);
  Alcotest.(check (float 1e-9))
    "unknown app is all-novel" 1.
    (Coverage.novelty cover ~app:"elsewhere" ob);
  Alcotest.(check bool) "fresh signature" true
    (Coverage.note_signature cover "sig-1");
  Alcotest.(check bool) "known signature" false
    (Coverage.note_signature cover "sig-1");
  (* a worker dump merges losslessly into another map *)
  let other = Coverage.create () in
  (match Coverage.merge_json other (Coverage.to_json cover) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string))
    "merged points" (Coverage.points cover ~app:"racy")
    (Coverage.points other ~app:"racy");
  Alcotest.(check (list string))
    "merged edges" (Coverage.edges cover ~app:"racy")
    (Coverage.edges other ~app:"racy")

(* ---------------- worker streams ---------------- *)

let sig_a = String.make 32 'a'
let sig_b = String.make 32 'b'
let sig_c = String.make 32 'c'

let run_line case seed =
  Printf.sprintf
    "{\"type\":\"run\",\"case\":%S,\"seed\":%d,\"outcome\":\"success\",\"steps\":40,\"instrs\":30,\"rollbacks\":1,\"episodes\":1,\"retries\":2,\"max_episode_steps\":7,\"sites\":[]}"
    case seed

let finding_line ~signature ~case ~seed ~run_index ~log =
  Printf.sprintf
    "{\"type\":\"finding\",\"signature\":%S,\"case\":%S,\"seed\":%d,\"outcome\":\"failed\",\"run_index\":%d,\"novelty\":0.5,\"log\":%S}"
    signature case seed run_index log

let summary_line ~worker ~runs ~findings =
  Printf.sprintf
    "{\"type\":\"fuzz_summary\",\"worker\":%d,\"engine\":\"fast\",\"elapsed_sec\":2.0,\"checks\":12,\"failures\":0,\"hardened_runs\":%d,\"total_runs\":%d,\"findings\":%d}"
    worker (runs / 2) runs findings

let coverage_line () =
  let c = Coverage.create () in
  Json.to_string (Coverage.to_json c)

let worker0 =
  [
    run_line "racy" 1;
    finding_line ~signature:sig_a ~case:"racy" ~seed:1 ~run_index:2
      ~log:"w0/a.sched.jsonl";
    run_line "racy" 2;
    finding_line ~signature:sig_b ~case:"racy" ~seed:2 ~run_index:3 ~log:"";
    coverage_line ();
    summary_line ~worker:0 ~runs:4 ~findings:2;
  ]

let worker1 =
  [
    finding_line ~signature:sig_a ~case:"racy" ~seed:7 ~run_index:1
      ~log:"w1/a.sched.jsonl";
    run_line "wakeup" 8;
    finding_line ~signature:sig_c ~case:"wakeup" ~seed:8 ~run_index:5
      ~log:"w1/c.sched.jsonl";
    coverage_line ();
    summary_line ~worker:1 ~runs:6 ~findings:2;
  ]

let fold ?elapsed workers =
  match Campaign.of_worker_lines ?elapsed workers with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let campaign_fold () =
  let c = fold ~elapsed:2.5 [ (0, worker0); (1, worker1) ] in
  Alcotest.(check int) "total runs" 10 c.Campaign.c_runs;
  Alcotest.(check int) "workers" 2 (List.length c.Campaign.c_workers);
  Alcotest.(check int) "unique findings" 3 (List.length c.Campaign.c_findings);
  Alcotest.(check int) "duplicates" 1 c.Campaign.c_duplicates;
  Alcotest.(check (list string)) "engines" [ "fast" ] c.Campaign.c_engines;
  Alcotest.(check (float 1e-9)) "elapsed override" 2.5 c.Campaign.c_elapsed;
  Alcotest.(check (float 1e-9)) "runs/sec" 4. c.Campaign.c_runs_per_sec;
  (* deterministic discovery order: ascending (run_index, case, seed) *)
  Alcotest.(check (list string))
    "finding order" [ sig_a; sig_b; sig_c ]
    (List.map (fun f -> f.Campaign.f_signature) c.Campaign.c_findings);
  (* the duplicate's count lands on the surviving finding *)
  (match c.Campaign.c_findings with
  | a :: _ -> Alcotest.(check int) "sig_a seen twice" 2 a.Campaign.f_count
  | [] -> Alcotest.fail "no findings");
  (* the curve is nondecreasing and ends at (total runs, uniques) *)
  let rec nondecreasing = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        x1 <= x2 && y1 <= y2 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "curve nondecreasing" true
    (nondecreasing c.Campaign.c_curve);
  (match List.rev c.Campaign.c_curve with
  | (x, y) :: _ ->
      Alcotest.(check (pair int int)) "curve endpoint" (10, 3) (x, y)
  | [] -> Alcotest.fail "empty curve");
  (* aggregate folded the run records *)
  Alcotest.(check int) "aggregate runs" 3 c.Campaign.c_agg.Conair.Obs.Aggregate.g_runs

let campaign_restart_determinism () =
  let report workers =
    Json.to_string (Campaign.to_json (fold ~elapsed:2.5 workers))
  in
  let once = report [ (0, worker0); (1, worker1) ] in
  Alcotest.(check string) "re-folded report identical" once
    (report [ (0, worker0); (1, worker1) ]);
  Alcotest.(check string) "worker order irrelevant" once
    (report [ (1, worker1); (0, worker0) ])

let campaign_minimized_and_digest () =
  let c = fold [ (0, worker0); (1, worker1) ] in
  let digest = Campaign.signatures_digest c in
  Alcotest.(check string)
    "digest only depends on the signature set" digest
    (Campaign.signatures_digest (fold [ (1, worker1); (0, worker0) ]));
  let c' = Campaign.set_minimized c ~signature:sig_b ~path:"corpus/b.jsonl" in
  let f =
    List.find (fun f -> f.Campaign.f_signature = sig_b) c'.Campaign.c_findings
  in
  Alcotest.(check (option string))
    "minimized path recorded"
    (Some "corpus/b.jsonl") f.Campaign.f_minimized;
  Alcotest.(check string) "digest unchanged by corpus paths" digest
    (Campaign.signatures_digest c')

let campaign_metrics () =
  let c = fold ~elapsed:2.5 [ (0, worker0); (1, worker1) ] in
  let reg = Metrics.create () in
  let runs = Metrics.counter reg "conair_campaign_runs_total" in
  let uniq = Metrics.counter reg "conair_campaign_unique_failures" in
  let dups = Metrics.counter reg "conair_campaign_duplicates_total" in
  ignore (Campaign.metrics ~into:reg c);
  Alcotest.(check int) "runs counter" 10 (Metrics.counter_value runs);
  Alcotest.(check int) "unique counter" 3 (Metrics.counter_value uniq);
  Alcotest.(check int) "duplicates counter" 1 (Metrics.counter_value dups);
  (* folding again into the same registry must not double-count *)
  ignore (Campaign.metrics ~into:reg c);
  Alcotest.(check int) "idempotent re-export" 10 (Metrics.counter_value runs)

let seed_range_syntax () =
  (match Campaign.parse_seed_range "3..17" with
  | Ok r -> Alcotest.(check (pair int int)) "inclusive bounds" (3, 17) r
  | Error e -> Alcotest.fail e);
  (match Campaign.parse_seed_range "5..5" with
  | Ok r -> Alcotest.(check (pair int int)) "singleton range" (5, 5) r
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Campaign.parse_seed_range bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error e ->
          Alcotest.(check bool)
            (bad ^ ": error text carries usage help")
            true
            (String.length e > 0))
    [ "7..3"; "abc"; "1...9"; "4"; ".." ]

let bench_document () =
  let c = fold ~elapsed:2.0 [ (0, worker0); (1, worker1) ] in
  let agree name =
    match
      Json.member "signature_agreement"
        (Campaign.bench_json ~jobs:2 ~iterations:10 name)
    with
    | Some (Json.Bool b) -> b
    | _ -> Alcotest.fail "signature_agreement missing"
  in
  Alcotest.(check bool)
    "same streams agree" true
    (agree [ ("ref", c); ("fast", c); ("block", c) ]);
  let divergent = fold [ (0, worker0) ] in
  Alcotest.(check bool)
    "different signature sets disagree" false
    (agree [ ("ref", c); ("fast", divergent) ])

(* ---------------- minimization across engines ---------------- *)

(* The campaign minimizes each unique finding on the block engine,
   whose windows account the directed feed and the switch-locating tap
   in bulk. Every failing catalog recording must minimize exactly as on
   the per-step fast engine: same candidate count, same minimized
   schedule log (modulo its engine stamp), same switch explanations,
   same detector report on the minimized schedule. *)
let minimize_agrees_across_engines () =
  let module Spec = Conair_bugbench.Bench_spec in
  let module Registry = Conair_bugbench.Registry in
  let module Engine = Conair.Runtime.Engine in
  let module Outcome = Conair.Runtime.Outcome in
  let module Log = Conair.Replay.Log in
  let module Minimize = Conair.Replay.Minimize in
  let failing = ref 0 in
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.Spec.make ~variant:Spec.Buggy ~oracle:true in
      List.iter
        (fun policy ->
          let _, log =
            Conair.record_run ~config:{ config with policy }
              ~ident:(Log.ident s.Spec.info.Spec.name) inst.Spec.program
          in
          if not (Outcome.is_success log.Log.outcome) then begin
            incr failing;
            let name = s.Spec.info.Spec.name in
            let run engine =
              match Conair.minimize ~engine log with
              | Ok m -> m
              | Error e -> Alcotest.failf "%s: minimize: %s" name e
            in
            let f = run Engine.Fast and b = run Engine.Block in
            Alcotest.(check string) (name ^ ": engine stamp") "block"
              b.Minimize.mn_log.Log.engine;
            Alcotest.(check int) (name ^ ": candidate executions")
              f.Minimize.mn_tests b.Minimize.mn_tests;
            Alcotest.(check int) (name ^ ": minimized preemptions")
              f.Minimize.mn_minimized b.Minimize.mn_minimized;
            Alcotest.(check (list string))
              (name ^ ": minimized schedule log")
              (Log.to_lines { f.Minimize.mn_log with Log.engine = "" })
              (Log.to_lines { b.Minimize.mn_log with Log.engine = "" });
            Alcotest.(check bool) (name ^ ": switches") true
              (f.Minimize.mn_switches = b.Minimize.mn_switches);
            Alcotest.(check string) (name ^ ": report")
              (Json.to_string (Minimize.to_json f))
              (Json.to_string (Minimize.to_json b));
            Alcotest.(check string) (name ^ ": rendering")
              (Minimize.render f) (Minimize.render b)
          end)
        [ Sched.Round_robin; Sched.Random 11 ])
    (Registry.all @ Registry.extended);
  Alcotest.(check bool) "the catalog has failing recordings" true
    (!failing > 0)

let suites =
  [
    ( "campaign",
      [
        Alcotest.test_case "signature properties" `Quick signature_properties;
        Alcotest.test_case "signature format pinned" `Quick
          signature_format_pinned;
        Alcotest.test_case "signature stable across recordings" `Quick
          signature_stable_across_recordings;
        Alcotest.test_case "coverage map" `Quick coverage_map;
        Alcotest.test_case "fold worker streams" `Quick campaign_fold;
        Alcotest.test_case "restart determinism" `Quick
          campaign_restart_determinism;
        Alcotest.test_case "minimized paths and digest" `Quick
          campaign_minimized_and_digest;
        Alcotest.test_case "prometheus counters" `Quick campaign_metrics;
        Alcotest.test_case "--seeds syntax" `Quick seed_range_syntax;
        Alcotest.test_case "bench document" `Quick bench_document;
        Alcotest.test_case "minimize agrees across engines" `Quick
          minimize_agrees_across_engines;
      ] );
  ]
