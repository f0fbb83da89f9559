(* The observability layer: the JSON encoder (escaping, round-trips, the
   parser), the streaming JSONL sink (golden log for a tiny deterministic
   program, batch/stream agreement on a catalog app), the metrics
   registry (JSON and Prometheus exposition), and the span builder — in
   particular the invariant that every completed [Stats.episode] yields
   exactly one [Recovered] span with matching start/end steps. *)

open Conair.Ir
open Test_util
module B = Builder
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Metrics = Conair.Obs.Metrics
module Span = Conair.Obs.Span
module Report = Conair.Obs.Report
module Prof = Conair.Obs.Prof
module Overhead = Conair.Obs.Overhead
module Aggregate = Conair.Obs.Aggregate
module Machine = Conair.Runtime.Machine
module Hooks = Conair.Runtime.Hooks
module Trace = Conair.Runtime.Trace
module Stats = Conair.Runtime.Stats
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Catalog = Conair_bugbench.Catalog

(* --- Json: encoding and escaping ----------------------------------- *)

let json_escaping () =
  let enc v = Json.to_string v in
  Alcotest.(check string) "quote and backslash" {|"a\"b\\c"|}
    (enc (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline tab cr" {|"x\ny\tz\r"|}
    (enc (Json.String "x\ny\tz\r"));
  Alcotest.(check string) "control chars as \\u" {|"\u0001\u001f"|}
    (enc (Json.String "\x01\x1f"));
  Alcotest.(check string) "utf-8 passes through" "\"\xc3\xa9\""
    (enc (Json.String "\xc3\xa9"));
  Alcotest.(check string) "empty containers" {|{"a":[],"b":{}}|}
    (enc (Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]));
  Alcotest.(check string) "scalars" {|[null,true,false,-3,1.5]|}
    (enc
       (Json.List
          [ Json.Null; Json.Bool true; Json.Bool false; Json.Int (-3);
            Json.Float 1.5 ]));
  (* non-finite floats have no JSON encoding; they degrade to null *)
  Alcotest.(check string) "nan is null" "[null,null,null]"
    (enc (Json.List [ Json.Float nan; Json.Float infinity;
                      Json.Float neg_infinity ]))

let json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 0.1;
      Json.Float (-1e-30);
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x00 \x7f é";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("nested", Json.List [ Json.Obj [ ("k", Json.Int 1) ]; Json.Null ]);
          ("s", Json.String "v");
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' ->
          if not (Json.equal v v') then
            Alcotest.failf "compact round-trip changed %s" (Json.to_string v)
      | Error e -> Alcotest.failf "reparse of %s: %s" (Json.to_string v) e)
    samples;
  (* the pretty encoding parses back to the same value too *)
  let big = Json.Obj [ ("all", Json.List samples) ] in
  (match Json.of_string (Json.to_string_pretty big) with
  | Ok v' ->
      Alcotest.(check bool) "pretty round-trip" true (Json.equal big v')
  | Error e -> Alcotest.failf "pretty reparse: %s" e)

let json_parser () =
  let parse s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check bool) "unicode escape" true
    (Json.equal (Json.String "A") (parse {|"\u0041"|}));
  Alcotest.(check bool) "surrogate pair" true
    (Json.equal (Json.String "\xf0\x9f\x98\x80") (parse {|"\ud83d\ude00"|}));
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.equal
       (Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ])
       (parse " {\n \"a\" : [ 1 ] } \t"));
  Alcotest.(check bool) "exponent is float" true
    (Json.equal (Json.Float 1500.) (parse "1.5e3"));
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul";
      "{\"a\" 1}"; "[1] garbage" ]

(* --- Jsonl: the streaming sink ------------------------------------- *)

(* A two-instruction single-threaded program: the whole event log is
   small and stable enough to pin as a golden value. *)
let tiny_program () =
  B.build ~main:"main" @@ fun b ->
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.output f "hi" [];
  B.exit_ f

let jsonl_golden () =
  let b = Buffer.create 256 in
  let meta = Jsonl.run_meta ~variant:"clean" "tiny" in
  let sink = Jsonl.sink ~meta ~store:true (Jsonl.buffer_writer b) in
  let m =
    Machine.create ~hooks:(Hooks.bundle ~trace:sink ()) (tiny_program ())
  in
  let outcome = Machine.run m in
  Alcotest.(check bool) "tiny program succeeds" true
    (Conair.Runtime.Outcome.is_success outcome);
  let expected =
    String.concat "\n"
      [
        {|{"type":"meta","app":"tiny","variant":"clean","engine":"fast","hardened":false}|};
        {|{"type":"event","ev":"schedule","step":0,"tid":0}|};
        {|{"type":"event","ev":"output","step":0,"tid":0,"text":"hi"}|};
        {|{"type":"event","ev":"schedule","step":1,"tid":0}|};
      ]
    ^ "\n"
  in
  Alcotest.(check string) "golden JSONL log" expected (Buffer.contents b)

let jsonl_stream_matches_batch () =
  (* on a real catalog app: the streamed log equals the batch
     serialization of the retained events, every line parses, and the
     sink's stored stream is the machine's trace *)
  let entry =
    List.find (fun (e : Catalog.entry) -> e.name = "uninit-read")
      (Catalog.all ())
  in
  let b = Buffer.create 4096 in
  let config = Machine.default_config in
  let meta = Jsonl.run_meta ~variant:"buggy" "uninit-read" in
  let sink = Jsonl.sink ~config ~meta ~store:true (Jsonl.buffer_writer b) in
  let m =
    Machine.create ~config ~hooks:(Hooks.bundle ~trace:sink ()) entry.program
  in
  ignore (Machine.run m);
  let events = Trace.events sink in
  Alcotest.(check bool) "events retained" true (events <> []);
  let streamed = Buffer.contents b in
  let batch =
    String.concat "\n" (Jsonl.events_to_lines ~config ~meta events) ^ "\n"
  in
  Alcotest.(check string) "stream equals batch" batch streamed;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' streamed)
  in
  Alcotest.(check int) "one line per event plus meta"
    (List.length events + 1) (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "line is not an object: %s" line
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e)
    lines;
  (* the meta header carries the config *)
  match Json.of_string (List.hd lines) with
  | Ok meta_line ->
      Alcotest.(check bool) "meta has config" true
        (Json.member "config" meta_line <> None);
      Alcotest.(check bool) "meta type" true
        (Json.member "type" meta_line = Some (Json.String "meta"))
  | Error e -> Alcotest.failf "meta line: %s" e

(* An observed run's meta names the engine that ran and whether the
   program was hardened — in the trace's meta line and in the report —
   whatever the caller's [run_meta] record said. *)
let meta_names_engine_and_hardening () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:false in
  List.iter
    (fun (engine, subject, hardened) ->
      let label =
        Printf.sprintf "%s, hardened %b" (Conair.Runtime.Engine.name engine)
          hardened
      in
      let b = Buffer.create 4096 in
      let rr =
        Conair.run_observed ~engine
          ~meta_info:(Jsonl.run_meta ~variant:"buggy" "HawkNL")
          ~trace_writer:(Jsonl.buffer_writer b) subject
      in
      let first_line =
        List.hd (String.split_on_char '\n' (Buffer.contents b))
      in
      let meta_line =
        match Json.of_string first_line with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: meta line: %s" label e
      in
      List.iter
        (fun (what, doc) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s engine" label what)
            true
            (Json.member "engine" doc
            = Some (Json.String (Conair.Runtime.Engine.name engine)));
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s hardened" label what)
            true
            (Json.member "hardened" doc = Some (Json.Bool hardened)))
        [ ("meta line", meta_line); ("report", rr.Conair.report) ])
    [
      ( Conair.Runtime.Engine.Block,
        Conair.Hardened (Conair.harden_exn inst.program Conair.Survival),
        true );
      (Conair.Runtime.Engine.Ref, Conair.Program inst.program, false);
    ]

(* --- Span builder: one span per episode ---------------------------- *)

let run_observed_app name =
  let spec =
    List.find
      (fun (s : Spec.t) ->
        String.lowercase_ascii s.info.name = String.lowercase_ascii name)
      (Registry.all @ Registry.extended)
  in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  Conair.run_observed (Conair.Hardened h)

let spans_match_episodes () =
  let total_episodes = ref 0 in
  List.iter
    (fun app ->
      let rr = run_observed_app app in
      let stats = rr.Conair.run.stats in
      let episodes = Stats.episodes_chronological stats in
      total_episodes := !total_episodes + List.length episodes;
      let recovered =
        List.filter (fun s -> s.Span.sp_outcome = Span.Recovered) rr.spans
      in
      Alcotest.(check int)
        (app ^ ": one Recovered span per completed episode")
        (List.length episodes) (List.length recovered);
      List.iter
        (fun (ep : Stats.episode) ->
          match
            List.find_opt
              (fun s ->
                s.Span.sp_tid = ep.ep_tid
                && s.Span.sp_site_id = ep.ep_site_id
                && s.Span.sp_start = ep.ep_start)
              recovered
          with
          | None ->
              Alcotest.failf "%s: no span for episode at site %d step %d" app
                ep.ep_site_id ep.ep_start
          | Some s ->
              Alcotest.(check int)
                (app ^ ": span end matches episode end")
                ep.ep_end s.Span.sp_end;
              Alcotest.(check bool)
                (app ^ ": span counted rollbacks")
                true
                (s.Span.sp_rollbacks >= 1))
        episodes)
    [ "HawkNL"; "Apache"; "MozillaXP" ];
  Alcotest.(check bool) "the sweep exercised real episodes" true
    (!total_episodes > 0)

let spans_synthetic () =
  (* hand-built streams pin the outcome classification *)
  let open Trace in
  let stream =
    [
      Ev_schedule { step = 0; tid = 1 };
      Ev_failure_detected
        { step = 5; tid = 1; site_id = 3; kind = Instr.Assert_fail };
      Ev_rollback { step = 5; tid = 1; site_id = 3; retry = 1 };
      Ev_rollback { step = 9; tid = 1; site_id = 3; retry = 2 };
      Ev_recovered { step = 12; tid = 1; site_id = 3 };
      Ev_failure_detected
        { step = 20; tid = 2; site_id = 7; kind = Instr.Deadlock };
      Ev_rollback { step = 20; tid = 2; site_id = 7; retry = 1 };
      Ev_fail_stop { step = 31; tid = 2; site_id = 7 };
    ]
  in
  match Span.of_events stream with
  | [ a; b ] ->
      Alcotest.(check int) "span 1 start" 5 a.Span.sp_start;
      Alcotest.(check int) "span 1 end" 12 a.Span.sp_end;
      Alcotest.(check int) "span 1 rollbacks" 2 a.Span.sp_rollbacks;
      Alcotest.(check bool) "span 1 recovered" true
        (a.Span.sp_outcome = Span.Recovered);
      Alcotest.(check bool) "span 1 kind" true
        (a.Span.sp_kind = Some Instr.Assert_fail);
      Alcotest.(check int) "span 2 tid" 2 b.Span.sp_tid;
      Alcotest.(check bool) "span 2 fail-stopped" true
        (b.Span.sp_outcome = Span.Fail_stopped);
      Alcotest.(check int) "span 2 duration" 11 (Span.duration b)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let chrome_trace_shape () =
  let rr = run_observed_app "HawkNL" in
  let doc = Span.to_chrome ~events:rr.Conair.events rr.Conair.spans in
  (* must survive a serialization round-trip *)
  (match Json.of_string (Json.to_string_pretty doc) with
  | Error e -> Alcotest.failf "chrome doc reparse: %s" e
  | Ok _ -> ());
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      let phase ev =
        match Json.member "ph" ev with
        | Some (Json.String p) -> p
        | _ -> Alcotest.fail "trace event without ph"
      in
      let phases = List.map phase evs in
      Alcotest.(check bool) "has metadata events" true
        (List.mem "M" phases);
      let completes =
        List.filter (fun ev -> phase ev = "X") evs
      in
      Alcotest.(check int) "one complete event per span"
        (List.length rr.Conair.spans) (List.length completes);
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if Json.member k ev = None then
                Alcotest.failf "complete event missing %S" k)
            [ "name"; "ts"; "dur"; "pid"; "tid" ])
        completes
  | _ -> Alcotest.fail "no traceEvents list"

(* --- Stats.episodes_chronological ---------------------------------- *)

let episodes_are_chronological () =
  let rr = run_observed_app "HawkNL" in
  let eps = Stats.episodes_chronological rr.Conair.run.stats in
  Alcotest.(check bool) "has episodes" true (eps <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Stats.ep_start <= b.Stats.ep_start && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending start steps" true (ascending eps);
  Alcotest.(check int) "same episodes, reversed"
    (List.length rr.Conair.run.stats.episodes)
    (List.length eps)

(* --- Metrics registry ---------------------------------------------- *)

let metrics_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "jobs_total" ~help:"jobs" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Alcotest.(check int) "counter value" 5 (Metrics.counter_value c);
  (match Metrics.inc ~by:(-1) c with
  | () -> Alcotest.fail "negative increment accepted"
  | exception Invalid_argument _ -> ());
  let c' = Metrics.counter t "jobs_total" in
  Metrics.inc c';
  Alcotest.(check int) "same identity, same cell" 6 (Metrics.counter_value c);
  let labeled = Metrics.counter t "jobs_total" ~labels:[ ("k", "v") ] in
  Metrics.inc labeled;
  Alcotest.(check int) "labels split identity" 1
    (Metrics.counter_value labeled);
  let g = Metrics.gauge t "depth" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram t "lat" ~buckets:[ 1.; 5.; 10. ] in
  List.iter (Metrics.observe h) [ 0.5; 3.; 7.; 100. ];
  Alcotest.(check int) "histogram count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 110.5 (Metrics.histogram_sum h);
  (match Metrics.histogram t "bad" ~buckets:[ 5.; 5. ] with
  | _ -> Alcotest.fail "non-increasing buckets accepted"
  | exception Invalid_argument _ -> ())

let metrics_exposition () =
  let t = Metrics.create () in
  let c = Metrics.counter t "reqs_total" ~help:"requests" in
  Metrics.inc ~by:3 c;
  let h = Metrics.histogram t "lat_steps" ~buckets:[ 1.; 10. ] in
  List.iter (Metrics.observe h) [ 0.5; 2.; 50. ];
  let json = Metrics.to_json t in
  (match Json.of_string (Json.to_string json) with
  | Error e -> Alcotest.failf "metrics json reparse: %s" e
  | Ok _ -> ());
  (match Json.member "metrics" json with
  | Some (Json.List [ cj; hj ]) ->
      Alcotest.(check bool) "counter value in json" true
        (Json.member "value" cj = Some (Json.Int 3));
      (match Json.member "buckets" hj with
      | Some (Json.List buckets) ->
          (* cumulative: le=1 → 1, le=10 → 2, +Inf → 3 *)
          let counts =
            List.map
              (fun b ->
                match Json.member "count" b with
                | Some (Json.Int n) -> n
                | _ -> Alcotest.fail "bucket without count")
              buckets
          in
          Alcotest.(check (list int)) "cumulative buckets" [ 1; 2; 3 ] counts
      | _ -> Alcotest.fail "histogram without buckets")
  | _ -> Alcotest.fail "unexpected metrics json shape");
  let text = Metrics.to_prometheus t in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun line -> line = needle)
             (String.split_on_char '\n' text))
      then Alcotest.failf "prometheus text missing %S:\n%s" needle text)
    [
      "# HELP reqs_total requests";
      "# TYPE reqs_total counter";
      "reqs_total 3";
      "lat_steps_bucket{le=\"1.0\"} 1";
      "lat_steps_bucket{le=\"10.0\"} 2";
      "lat_steps_bucket{le=\"+Inf\"} 3";
      "lat_steps_sum 52.5";
      "lat_steps_count 3";
    ]

let standard_metrics_track_stats () =
  let rr = run_observed_app "HawkNL" in
  let stats = rr.Conair.run.stats in
  let v name =
    match Json.member "metrics" (Metrics.to_json rr.Conair.metrics) with
    | Some (Json.List ms) -> (
        match
          List.find_opt (fun m -> Json.member "name" m = Some (Json.String name))
            ms
        with
        | Some m -> Json.member "value" m
        | None -> None)
    | _ -> None
  in
  Alcotest.(check bool) "steps metric" true
    (v "conair_steps_total" = Some (Json.Int stats.steps));
  Alcotest.(check bool) "rollbacks metric" true
    (v "conair_rollbacks_total" = Some (Json.Int stats.rollbacks));
  Alcotest.(check bool) "episodes metric" true
    (v "conair_recovery_episodes_total"
    = Some (Json.Int (List.length stats.episodes)));
  (* live counters agree with the final stats *)
  Alcotest.(check bool) "live rollbacks agree" true
    (v "conair_live_rollbacks_total" = Some (Json.Int stats.rollbacks))

(* --- Prof: the deterministic cost profiler ------------------------- *)

let prof_tiny_exact () =
  (* the two-instruction program pins the attribution exactly: two useful
     steps, both in main/entry, nothing else *)
  let prof = Prof.create () in
  let m =
    Machine.create
      ~hooks:(Hooks.bundle ~profile:(Prof.probe prof) ())
      (tiny_program ())
  in
  ignore (Machine.run m);
  Prof.finalize prof;
  Alcotest.(check int) "useful" 2 (Prof.useful_steps prof);
  Alcotest.(check int) "checkpoint" 0 (Prof.checkpoint_steps prof);
  Alcotest.(check int) "wasted" 0 (Prof.wasted_steps prof);
  Alcotest.(check int) "idle" 0 (Prof.idle_steps prof);
  Alcotest.(check (list string)) "collapsed total" [ "main;entry 2" ]
    (Prof.to_collapsed prof Prof.Total);
  Alcotest.(check (list string)) "collapsed wasted is empty" []
    (Prof.to_collapsed prof Prof.Wasted)

let run_profiled_app name =
  let spec =
    List.find
      (fun (s : Spec.t) -> s.info.name = name)
      (Registry.all @ Registry.extended)
  in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  let prof = Prof.create () in
  let r =
    Conair.run
      ~hooks:(Conair.Runtime.Hooks.bundle ~profile:(Prof.probe prof) ())
      (Conair.Hardened h)
  in
  Prof.finalize prof;
  (r, prof)

let prof_accounts_for_every_step () =
  List.iter
    (fun app ->
      let r, prof = run_profiled_app app in
      let stats = r.Conair.stats in
      (* conservation: every scheduler step lands in exactly one class *)
      Alcotest.(check int)
        (app ^ ": attributed + idle = total steps")
        stats.steps
        (Prof.attributed_steps prof + Prof.idle_steps prof);
      Alcotest.(check int)
        (app ^ ": attributed = useful + checkpoint + wasted")
        (Prof.useful_steps prof + Prof.checkpoint_steps prof
        + Prof.wasted_steps prof)
        (Prof.attributed_steps prof);
      Alcotest.(check int)
        (app ^ ": one checkpoint step per dynamic checkpoint")
        stats.checkpoints (Prof.checkpoint_steps prof);
      (* per-site charges cover the run's rollbacks and wasted steps *)
      let costs = Prof.site_costs prof in
      Alcotest.(check int)
        (app ^ ": site rollbacks sum to stats.rollbacks")
        stats.rollbacks
        (List.fold_left (fun acc c -> acc + c.Prof.sc_rollbacks) 0 costs);
      Alcotest.(check int)
        (app ^ ": site wasted steps sum to the wasted total")
        (Prof.wasted_steps prof)
        (List.fold_left (fun acc c -> acc + c.Prof.sc_wasted) 0 costs);
      if stats.rollbacks > 0 then begin
        Alcotest.(check bool) (app ^ ": rollbacks wasted steps") true
          (Prof.wasted_steps prof > 0);
        Alcotest.(check bool) (app ^ ": wasted ratio positive") true
          (Prof.wasted_ratio prof > 0.)
      end)
    [ "HawkNL"; "MozillaXP"; "Transmission" ]

let prof_collapsed_and_json () =
  let _, prof = run_profiled_app "HawkNL" in
  (* every collapsed line is "frame;frame;... N" with positive count *)
  let parse_line line =
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "collapsed line without count: %s" line
    | Some i ->
        let frames = String.sub line 0 i in
        let count = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
        Alcotest.(check bool) "positive count" true (count > 0);
        List.iter
          (fun f ->
            Alcotest.(check bool) "non-empty frame" true (f <> ""))
          (String.split_on_char ';' frames);
        count
  in
  let total kind =
    List.fold_left (fun acc l -> acc + parse_line l) 0
      (Prof.to_collapsed prof kind)
  in
  Alcotest.(check int) "total lines sum to attributed steps"
    (Prof.attributed_steps prof) (total Prof.Total);
  Alcotest.(check int) "useful lines sum" (Prof.useful_steps prof)
    (total Prof.Useful);
  Alcotest.(check int) "wasted lines sum" (Prof.wasted_steps prof)
    (total Prof.Wasted);
  (* the JSON document and the counter events survive a round-trip *)
  (match Json.of_string (Json.to_string (Prof.to_json prof)) with
  | Error e -> Alcotest.failf "profile json reparse: %s" e
  | Ok j ->
      Alcotest.(check bool) "profile type tag" true
        (Json.member "type" j = Some (Json.String "profile")));
  List.iter
    (fun ev ->
      Alcotest.(check bool) "counter event phase" true
        (Json.member "ph" ev = Some (Json.String "C")))
    (Prof.counter_events prof);
  Alcotest.(check bool) "samples exist" true (Prof.samples prof <> [])

let prof_is_deterministic () =
  let profile_once () =
    let _, prof = run_profiled_app "MozillaXP" in
    Json.to_string (Prof.to_json prof)
  in
  Alcotest.(check string) "same program, same profile bytes"
    (profile_once ()) (profile_once ())

(* --- Aggregate: cross-run percentile summaries --------------------- *)

let aggregate_percentiles () =
  Alcotest.(check int) "empty" 0 (Aggregate.percentile [] 50.);
  let hundred = List.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50 of 1..100" 50 (Aggregate.percentile hundred 50.);
  Alcotest.(check int) "p95 of 1..100" 95 (Aggregate.percentile hundred 95.);
  Alcotest.(check int) "p100 of 1..100" 100
    (Aggregate.percentile hundred 100.);
  Alcotest.(check int) "p50 of singleton" 7 (Aggregate.percentile [ 7 ] 50.)

let aggregate_synthetic () =
  let record i =
    Printf.sprintf
      {|{"type":"run","case":"racy","seed":%d,"outcome":"success","steps":100,"episodes":%d,"retries":%d,"max_episode_steps":%d,"sites":[{"site":3,"episodes":%d,"retries":%d,"steps":%d}]}|}
      i
      (if i mod 2 = 0 then 1 else 0)
      (if i mod 2 = 0 then i else 0)
      (if i mod 2 = 0 then 10 * i else 0)
      (if i mod 2 = 0 then 1 else 0)
      (if i mod 2 = 0 then i else 0)
      (if i mod 2 = 0 then 10 * i else 0)
  in
  let lines =
    {|{"type":"meta","app":"conair_fuzz"}|}
    :: List.init 10 (fun i -> record (i + 1))
    @ [ {|{"type":"fuzz_summary","checks":1}|}; "" ]
  in
  match Aggregate.of_lines lines with
  | Error e -> Alcotest.failf "aggregate: %s" e
  | Ok agg ->
      (* runs 1..10; even seeds (2,4,6,8,10) have one episode each *)
      Alcotest.(check int) "runs counted, meta/summary skipped" 10
        agg.Aggregate.g_runs;
      Alcotest.(check int) "recovery runs" 5 agg.Aggregate.g_recovery_runs;
      Alcotest.(check int) "total steps" 1000 agg.Aggregate.g_total_steps;
      (* recovery steps are 20,40,60,80,100 *)
      Alcotest.(check int) "p50 recovery steps" 60
        agg.Aggregate.g_p50_recovery_steps;
      Alcotest.(check int) "max recovery steps" 100
        agg.Aggregate.g_max_recovery_steps;
      Alcotest.(check int) "max retries" 10 agg.Aggregate.g_max_retries;
      (match agg.Aggregate.g_sites with
      | [ s ] ->
          Alcotest.(check int) "site id" 3 s.Aggregate.g_site;
          Alcotest.(check int) "site episodes" 5 s.Aggregate.g_episodes;
          Alcotest.(check int) "site retries" 30 s.Aggregate.g_retries;
          Alcotest.(check int) "site steps" 300 s.Aggregate.g_steps;
          Alcotest.(check (float 1e-9)) "site ratio" 0.3 s.Aggregate.g_ratio
      | sites -> Alcotest.failf "expected 1 site, got %d" (List.length sites));
      (match Json.of_string (Json.to_string (Aggregate.to_json agg)) with
      | Error e -> Alcotest.failf "aggregate json reparse: %s" e
      | Ok _ -> ());
      Alcotest.(check bool) "render is non-empty" true
        (Aggregate.render agg <> [])

let aggregate_rejects_corrupt_lines () =
  match Aggregate.of_lines [ {|{"type":"run","steps":1}|}; "{oops" ] with
  | Ok _ -> Alcotest.fail "corrupt line accepted"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 7 && String.sub e 0 7 = "line 2:")

(* --- Overhead: the paper-style harness ----------------------------- *)

let overhead_case name =
  let spec =
    List.find (fun (s : Spec.t) -> s.info.name = name) Registry.all
  in
  let inst variant oracle =
    let i = spec.Spec.make ~variant ~oracle in
    {
      Overhead.program = i.Spec.program;
      fix_iids = i.Spec.fix_site_iids;
      accept = i.Spec.accept;
    }
  in
  let needs = spec.Spec.info.needs_oracle in
  {
    Overhead.name;
    needs_oracle = needs;
    buggy_fix = inst Spec.Buggy true;
    buggy_survival = inst Spec.Buggy needs;
    clean_fix = inst Spec.Clean true;
    clean_survival = inst Spec.Clean needs;
  }

let overhead_harness () =
  let rows =
    Overhead.measure_all [ overhead_case "HawkNL"; overhead_case "MySQL2" ]
  in
  Alcotest.(check int) "one row per case" 2 (List.length rows);
  List.iter
    (fun (r : Overhead.row) ->
      Alcotest.(check bool) (r.o_name ^ ": fix recovers") true
        r.o_fix_recovered;
      Alcotest.(check bool) (r.o_name ^ ": survival recovers") true
        r.o_surv_recovered;
      Alcotest.(check int)
        (r.o_name ^ ": all random runs succeed")
        r.o_runs r.o_fix_ok;
      Alcotest.(check bool)
        (r.o_name ^ ": fix overhead below the paper bound")
        true
        (r.o_fix_overhead_pct >= 0. && r.o_fix_overhead_pct < 1.);
      Alcotest.(check bool)
        (r.o_name ^ ": survival overhead small")
        true
        (r.o_surv_overhead_pct >= 0. && r.o_surv_overhead_pct < 5.);
      Alcotest.(check bool) (r.o_name ^ ": recovery did work") true
        (r.o_rollbacks > 0 && r.o_wasted_steps > 0);
      Alcotest.(check int)
        (r.o_name ^ ": site retries sum to the total")
        r.o_retries
        (List.fold_left (fun acc s -> acc + s.Overhead.sr_retries) 0 r.o_sites))
    rows;
  let s = Overhead.summary rows in
  Alcotest.(check int) "summary counts cases" 2 s.Overhead.s_cases;
  Alcotest.(check int) "summary fix recoveries" 2 s.Overhead.s_fix_recovered;
  (match Json.of_string (Json.to_string (Overhead.to_json rows)) with
  | Error e -> Alcotest.failf "overhead json reparse: %s" e
  | Ok j ->
      Alcotest.(check bool) "overhead type tag" true
        (Json.member "type" j = Some (Json.String "overhead")));
  (* header plus one line per case *)
  Alcotest.(check int) "table rows" 3
    (List.length (Overhead.table_rows rows))

let suites =
  [
    ( "obs",
      [
        case "json escaping" json_escaping;
        case "json round-trips" json_roundtrip;
        case "json parser" json_parser;
        case "jsonl golden log" jsonl_golden;
        case "jsonl stream equals batch" jsonl_stream_matches_batch;
        case "run meta names engine and hardening"
          meta_names_engine_and_hardening;
        case "one span per recovery episode" spans_match_episodes;
        case "span builder on synthetic streams" spans_synthetic;
        case "chrome trace shape" chrome_trace_shape;
        case "episodes are chronological" episodes_are_chronological;
        case "metrics basics" metrics_basics;
        case "metrics exposition" metrics_exposition;
        case "standard metrics track stats" standard_metrics_track_stats;
        case "profiler: exact attribution on the tiny program"
          prof_tiny_exact;
        case "profiler: every step accounted for" prof_accounts_for_every_step;
        case "profiler: collapsed stacks and json exports"
          prof_collapsed_and_json;
        case "profiler: byte-identical across runs" prof_is_deterministic;
        case "aggregate: nearest-rank percentiles" aggregate_percentiles;
        case "aggregate: synthetic run records" aggregate_synthetic;
        case "aggregate: corrupt lines rejected"
          aggregate_rejects_corrupt_lines;
        case "overhead: harness on two benchmarks" overhead_harness;
      ] );
  ]
