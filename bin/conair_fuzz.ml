(* conair_fuzz: randomized end-to-end validation of the whole pipeline,
   and the campaign orchestrator built on top of it.

   Single-process mode generates random programs (straight-line
   arithmetic and racy reader/writer shapes), hardens them in survival
   mode, and runs them under several schedules, checking the system's
   core guarantees on every single one:

   - transparency: a non-failing program is unchanged by hardening;
   - recovery: racy programs end successfully with the right value;
   - safety: zero rollback-verifier violations;
   - determinism: a fixed seed reproduces a run exactly;
   - round-trip: emit/parse reproduces the hardened program.

   Usage:  conair_fuzz [OPTIONS] [ITERATIONS] [BASE_SEED]
                       (defaults 500 0; see [usage] below)

   With --engine (ref, fast or block; default block), every execution —
   reference, hardened, recorded and detected — runs on the named
   engine. All engines agree bit-for-bit, so the checks and the summary
   are engine-independent; running the fuzzer under each engine is
   itself a differential test.

   With --jsonl, every hardened run appends one {"type":"run",...} record
   to FILE (the input format of [Conair.Obs.Aggregate] and the aggregate
   subcommand), preceded by a meta header and followed by the same
   fuzz_summary object that goes to stdout. A jsonl stream additionally
   turns on *observation*: every recorded run carries an
   [Obs.Coverage] collector, failing runs (including the unhardened
   probe runs of the racy/ring/wakeup cases) emit {"type":"finding"}
   records keyed by their interleaving signature, and the stream ends
   with the worker's {"type":"coverage"} dump — the [Obs.Campaign]
   vocabulary.

   With --detect, the racy cases additionally run the race detector on
   every schedule tried, tallying per address how many schedules observed
   a race on it — a detected_races table in the summary. A race observed
   on some schedules but not others is the detector's view of how narrow
   the buggy window is (cf. the schedule counts of §5).

   With --record DIR, every hardened run executes with the schedule
   recorder installed, and the runs that matter — the failing ones and
   the ones that recovered (rollbacks > 0) — are saved to DIR as
   self-contained schedule logs (<case>-<seed>[-pN].sched.jsonl),
   replayable with `conair_cli replay` and shrinkable with `conair_cli
   minimize`. The saved paths appear in the summary as recorded_failing
   and recorded_recovered.

   With --jobs N (or --campaign DIR), this process becomes a
   *coordinator*: it shards the seed range into N contiguous chunks,
   re-executes itself once per chunk (`--worker i` + the chunk's
   --seeds; process fan-out keeps the [Runtime.Hooks] slots
   single-owner), tails the worker JSONL streams into live Prometheus
   counters (DIR/metrics.prom), and at the end folds the streams through
   [Obs.Campaign] into one report (DIR/report.json): findings deduped by
   signature, the unique-failures-vs-runs curve, merged coverage, and
   the recovery percentiles of [Obs.Aggregate]. Each unique finding's
   recorded schedule is then shrunk with the minimizer into DIR/corpus/.

   With --bench FILE, the same sharded campaign runs once per engine and
   the per-engine runs/sec, signature digests and growth curves are
   written as the BENCH_fuzz.json document (validated by json_check);
   the digests agreeing across engines is the end-to-end form of the
   bit-for-bit differential guarantee. *)

module Gen = Conair_genprog.Genprog
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome
module Stats = Conair.Runtime.Stats
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Coverage = Conair.Obs.Coverage
module Campaign = Conair.Obs.Campaign
module Aggregate = Conair.Obs.Aggregate
module Metrics = Conair.Obs.Metrics
module Bs = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

let config = { Machine.default_config with fuel = 300_000 }

let usage_lines =
  [
    "Usage: conair_fuzz [OPTIONS] [ITERATIONS] [BASE_SEED]";
    "";
    "Fuzz the ConAir pipeline (defaults: 500 iterations from seed 0).";
    "";
    "Seed selection:";
    "  ITERATIONS BASE_SEED  run seeds BASE_SEED .. BASE_SEED+ITERATIONS-1";
    "  --seeds LO..HI        run seeds LO through HI inclusive (mutually";
    "                        exclusive with the positionals)";
    "";
    "Workload and execution:";
    "  --engine NAME    interpreter for every run: ref, fast or block";
    "                   (default block)";
    "  --apps           fuzz the bugbench catalog (buggy variants, random";
    "                   schedules) instead of generated programs";
    "  --detect         also run the race detector on every racy schedule";
    "  --record DIR     save failing and recovered schedule logs to DIR";
    "  --jsonl FILE     stream run/finding/coverage/summary records to FILE";
    "";
    "Campaign orchestration:";
    "  --jobs N         shard the seed range across N worker processes and";
    "                   fold their streams into one campaign report";
    "  --campaign DIR   campaign working directory (workers/, logs/, corpus/,";
    "                   report.json, metrics.prom); implies --jobs 4";
    "  --bench FILE     run the campaign once per engine and write the";
    "                   BENCH_fuzz.json document to FILE";
    "  --worker ID      internal: run as campaign worker ID (requires --jsonl)";
    "";
    "  --help           show this help";
  ]

let usage_error msg =
  prerr_endline ("conair_fuzz: " ^ msg);
  prerr_endline "conair_fuzz: try --help for usage";
  exit 2

(* --engine: which interpreter runs everything (default: block) *)
let engine = ref Engine.Block

type failure_report = { case : string; detail : string }

let failures : failure_report list ref = ref []
let checked = ref 0

(* summary telemetry: every hardened run reports in here *)
let runs = ref 0
let recoveries = ref 0
let max_episode = ref 0

(* every execution, probe runs included: the finding run_index clock *)
let total_runs = ref 0

(* --jsonl: one record per hardened run, streamed as the fuzz goes *)
let jsonl : Jsonl.writer option ref = ref None

(* --detect: addr -> (schedules that raced it, schedules tried) *)
let detect = ref false
let detected : (string, int) Hashtbl.t = Hashtbl.create 16
let detect_schedules = ref 0

(* --record: save failing and recovered schedules here *)
let record_dir = ref None
let recorded_failing = ref [] (* newest first; reversed in the summary *)
let recorded_recovered = ref []

(* campaign roles *)
let worker_id : int option ref = ref None
let apps_mode = ref false

(* schedule coverage: grown by every observed run; novelty of the seed
   under fuzz steers extra schedules toward unexplored interleavings *)
let cover = Coverage.create ()
let findings_count = ref 0
let seed_novelty = ref 0.

(* Observation — coverage collectors, finding records, the coverage
   dump — is on whenever the run streams JSONL (campaign workers
   always do). *)
let observing () = !jsonl <> None

let write_jsonl j =
  match !jsonl with Some w -> Jsonl.write_json w j | None -> ()

(* A failing run becomes a finding record: deduped campaign-wide by its
   interleaving signature, curve-positioned by the worker-local run
   ordinal at discovery. *)
let emit_finding ~case ~seed ~outcome ~(ob : Coverage.observed) ~novelty ~path
    log =
  incr findings_count;
  let signature = Conair.interleaving_signature ~orders:ob.ob_orders log in
  ignore (Coverage.note_signature cover signature);
  write_jsonl
    (Json.Obj
       [
         ("type", Json.String "finding");
         ("signature", Json.String signature);
         ("case", Json.String case);
         ("seed", Json.Int seed);
         ("outcome", Json.String outcome);
         ("run_index", Json.Int !total_runs);
         ("novelty", Json.Float novelty);
         ("log", Json.String (Option.value ~default:"" path));
       ])

(* Fold one observed run into the worker's coverage map; the returned
   novelty steers the racy case toward extra schedules. *)
let observe_run ~case (coll : Coverage.collector) =
  let ob = Coverage.observed coll in
  let nov = Coverage.novelty cover ~app:case ob in
  seed_novelty := max !seed_novelty nov;
  Coverage.note cover ~app:case ob;
  (ob, nov)

(* One fuzz execution of a hardened build or of the raw program.
   Hardened runs record whenever observing or saving schedules; raw
   (unhardened) probes — where the bugs actually fire — only when
   observing. A recorded run carries a coverage collector when
   observing, saves its log to --record's DIR when it failed or
   recovered, and a failure becomes a finding with a replayable log.
   Recording only taps the scheduler's decisions, so the run itself is
   unchanged. [tag] disambiguates multiple schedules of the same
   (case, seed). *)
let execute_recorded ~case ~seed ?(tag = "") ~config
    (subject : Conair.subject) =
  incr total_runs;
  let engine = !engine in
  let hardened =
    match subject with Conair.Hardened _ -> true | Conair.Program _ -> false
  in
  if not (observing () || (hardened && !record_dir <> None)) then
    Conair.run ~config ~engine subject
  else
    let coll = if observing () then Some (Coverage.collector ()) else None in
    let race = Option.map Coverage.probe coll in
    let mode, suffix =
      if hardened then ("survival", "") else ("unhardened", "-unhardened")
    in
    let ident = Conair.Replay.Log.ident ~variant:case ~mode "conair_fuzz" in
    let r =
      Conair.run ~config ~engine ~hooks:(Conair.Runtime.Hooks.bundle ?race ())
        ~ident ~record:true subject
    in
    let log = Option.get r.log in
    let failing = not (Outcome.is_success r.outcome) in
    let recovered = r.Conair.stats.rollbacks > 0 in
    let path =
      match !record_dir with
      | Some dir when failing || recovered ->
          let path =
            Filename.concat dir
              (Printf.sprintf "%s-%d%s%s.sched.jsonl" case seed tag suffix)
          in
          Conair.Replay.Log.save log path;
          if failing then recorded_failing := path :: !recorded_failing
          else recorded_recovered := path :: !recorded_recovered;
          Some path
      | _ -> None
    in
    (match coll with
    | Some c ->
        let ob, nov = observe_run ~case c in
        if failing then
          emit_finding ~case ~seed
            ~outcome:(Aggregate.outcome_tag r.outcome)
            ~ob ~novelty:nov ~path log
    | None -> ());
    r

let note_run ~case ~seed (r : Conair.run) =
  incr runs;
  if r.stats.rollbacks > 0 then incr recoveries;
  max_episode := max !max_episode (Stats.max_recovery_time r.stats);
  write_jsonl (Aggregate.run_record ~case ~seed ~outcome:r.outcome r.stats);
  r

let check case ~detail ok =
  incr checked;
  if not ok then failures := { case; detail } :: !failures

let gen_with seed g =
  let rand = Random.State.make [| 0x5eed; seed |] in
  g rand

let fuzz_arith seed =
  let ops = gen_with seed Gen.arith_spec_gen in
  if ops <> [] then begin
    let detail = Gen.arith_spec_print ops in
    let p, expected = Gen.arith_program ops in
    let r0 = Conair.execute ~config ~engine:!engine p in
    check "arith: reference" ~detail
      (Outcome.is_success r0.outcome
      && r0.outputs = [ string_of_int expected ]);
    let h = Conair.harden_exn p Conair.Survival in
    let r1 =
      note_run ~case:"arith" ~seed
        (execute_recorded ~case:"arith" ~seed ~config (Conair.Hardened h))
    in
    check "arith: transparency" ~detail
      (r1.outputs = r0.outputs && r1.stats.rollbacks = 0);
    check "arith: round-trip" ~detail
      (match
         Conair.Ir.Parse.program (Conair.Ir.Emit.program h.hardened.program)
       with
      | Ok p2 ->
          Conair.Ir.Emit.program p2 = Conair.Ir.Emit.program h.hardened.program
      | Error _ -> false)
  end

let fuzz_racy seed =
  let spec = gen_with seed Gen.racy_spec_gen in
  let detail = Gen.racy_spec_print spec in
  let p = Gen.racy_program spec in
  let h = Conair.harden_exn p Conair.Survival in
  seed_novelty := 0.;
  let one_policy pi policy =
    let config = { config with policy } in
    (* the unhardened probe first: this is where the race actually
       fires (the oracle assert fail-stops it), producing findings *)
    if observing () then
      ignore
        (execute_recorded ~case:"racy" ~seed
           ~tag:(Printf.sprintf "-p%d" pi)
           ~config (Conair.Program p));
    let r =
      note_run ~case:"racy" ~seed
        (execute_recorded ~case:"racy" ~seed
           ~tag:(Printf.sprintf "-p%d" pi)
           ~config (Conair.Hardened h))
    in
    check "racy: recovers" ~detail
      (Outcome.is_success r.outcome && r.outputs = [ string_of_int spec.expected ]);
    check "racy: rollback safety" ~detail (r.stats.tracecheck_violations = 0);
    if !detect then begin
      (* same schedule again, this time with the detector installed *)
      incr detect_schedules;
      let _, rep =
        Conair.run_detected ~config ~engine:!engine (Conair.Hardened h)
      in
      List.iter
        (fun rc ->
          let a = Conair.Race.Report.addr_string rc.Conair.Race.Report.rc_addr in
          Hashtbl.replace detected a
            (1 + Option.value ~default:0 (Hashtbl.find_opt detected a)))
        (List.sort_uniq
           (fun a b ->
             compare a.Conair.Race.Report.rc_addr b.Conair.Race.Report.rc_addr)
           rep.Conair.Race.Report.races)
    end
  in
  List.iteri one_policy
    [ Sched.Round_robin; Sched.Random seed; Sched.Random (seed + 7919) ];
  (* novelty steering: a seed whose interleavings broke new coverage
     ground gets extra random schedules to push further into the
     window (deterministic offsets keep runs reproducible) *)
  if observing () && !seed_novelty > 0.25 then
    List.iteri
      (fun k policy -> one_policy (3 + k) policy)
      [ Sched.Random (seed + 104_729); Sched.Random (seed + 224_737) ];
  (* determinism *)
  let once () =
    let r =
      Conair.execute_hardened
        ~config:{ config with policy = Sched.Random seed }
        ~engine:!engine h
    in
    (Outcome.to_string r.outcome, r.outputs, r.stats.steps)
  in
  check "racy: determinism" ~detail (once () = once ())

let fuzz_ring seed =
  let spec = gen_with seed Gen.ring_spec_gen in
  let detail = Gen.ring_spec_print spec in
  let p = Gen.ring_program spec in
  let r0 = execute_recorded ~case:"ring" ~seed ~config (Conair.Program p) in
  check "ring: hangs unhardened" ~detail
    (match r0.outcome with Outcome.Hang _ -> true | _ -> false);
  let h = Conair.harden_exn p Conair.Survival in
  let r =
    note_run ~case:"ring" ~seed
      (execute_recorded ~case:"ring" ~seed
         ~config:{ config with fuel = 2_000_000 }
         (Conair.Hardened h))
  in
  check "ring: recovers" ~detail (Outcome.is_success r.outcome);
  check "ring: rollback safety" ~detail (r.stats.tracecheck_violations = 0)

let fuzz_wakeup seed =
  let spec = gen_with seed Gen.wakeup_spec_gen in
  (* only specs whose notify genuinely lands in the gap hang unhardened;
     check recovery unconditionally and the hang only when it applies *)
  let detail = Gen.wakeup_spec_print spec in
  let p = Gen.wakeup_program spec in
  let r0 = execute_recorded ~case:"wakeup" ~seed ~config (Conair.Program p) in
  let hung = match r0.outcome with Outcome.Hang _ -> true | _ -> false in
  let h = Conair.harden_exn p Conair.Survival in
  let r =
    note_run ~case:"wakeup" ~seed
      (execute_recorded ~case:"wakeup" ~seed ~config (Conair.Hardened h))
  in
  check "wakeup: hardened always succeeds" ~detail
    (Outcome.is_success r.outcome);
  check "wakeup: correct payload" ~detail
    (r.outputs = [ string_of_int spec.payload ]);
  if hung then
    check "wakeup: recovery actually ran" ~detail (r.stats.rollbacks > 0)

(* --apps: fuzz the bugbench catalog. Each seed picks one app and one
   random schedule; the unhardened buggy variant is probed for findings
   (the §5 question: how many schedules hit the window?) and the
   hardened build is checked for rollback safety. Hardened failures
   still surface — as findings, not check failures, since not every
   app/schedule is recoverable without its oracle. *)
let app_specs = Registry.all @ Registry.extended
let app_hardened : (string, Conair.hardened) Hashtbl.t = Hashtbl.create 16

let fuzz_app seed =
  let spec = List.nth app_specs (seed mod List.length app_specs) in
  let info = spec.Bs.info in
  let name = info.Bs.name in
  let detail = Printf.sprintf "%s seed %d" name seed in
  let config = { config with policy = Sched.Random seed } in
  let buggy =
    spec.Bs.make ~variant:Bs.Buggy ~oracle:info.Bs.needs_oracle
  in
  ignore
    (execute_recorded ~case:name ~seed ~config
       (Conair.Program buggy.Bs.program));
  let h =
    match Hashtbl.find_opt app_hardened name with
    | Some h -> h
    | None ->
        let h = Conair.harden_exn buggy.Bs.program Conair.Survival in
        Hashtbl.add app_hardened name h;
        h
  in
  let r =
    note_run ~case:name ~seed
      (execute_recorded ~case:name ~seed ~config (Conair.Hardened h))
  in
  check "app: rollback safety" ~detail (r.stats.tracecheck_violations = 0)

(* ------------------------------------------------------------------ *)
(* argument parsing                                                   *)

let seeds_range : (int * int) option ref = ref None
let jobs = ref 0 (* 0 = not given *)
let campaign_dir : string option ref = ref None
let bench_file : string option ref = ref None

(* positional args plus options; cmdliner would be overkill here *)
let parse_argv () =
  let jsonl_file = ref None in
  let positional = ref [] in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec scan = function
    | [] -> ()
    | "--help" :: _ ->
        List.iter print_endline usage_lines;
        exit 0
    | "--jsonl" :: file :: rest ->
        jsonl_file := Some file;
        scan rest
    | "--detect" :: rest ->
        detect := true;
        scan rest
    | "--record" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        record_dir := Some dir;
        scan rest
    | "--engine" :: name :: rest -> (
        match Engine.of_string name with
        | Ok e ->
            engine := e;
            scan rest
        | Error e -> usage_error e)
    | "--seeds" :: range :: rest -> (
        match Campaign.parse_seed_range range with
        | Ok r ->
            seeds_range := Some r;
            scan rest
        | Error e -> usage_error e)
    | "--jobs" :: n :: rest ->
        let n = int_arg "--jobs" n in
        if n < 1 then usage_error "--jobs expects N >= 1";
        jobs := n;
        scan rest
    | "--campaign" :: dir :: rest ->
        campaign_dir := Some dir;
        scan rest
    | "--bench" :: file :: rest ->
        bench_file := Some file;
        scan rest
    | "--apps" :: rest ->
        apps_mode := true;
        scan rest
    | "--worker" :: id :: rest ->
        worker_id := Some (int_arg "--worker" id);
        scan rest
    | [ flag ]
      when List.mem flag
             [
               "--jsonl"; "--record"; "--engine"; "--seeds"; "--jobs";
               "--campaign"; "--bench"; "--worker";
             ] ->
        usage_error (flag ^ " needs an argument")
    | arg :: rest ->
        if String.length arg > 1 && arg.[0] = '-' then
          usage_error ("unknown option " ^ arg)
        else begin
          positional := arg :: !positional;
          scan rest
        end
  in
  scan (List.tl (Array.to_list Sys.argv));
  (!jsonl_file, List.rev !positional)

(* the fuzzed seed range, from --seeds or the legacy positionals *)
let resolve_seed_range positional =
  let int_pos name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  match (!seeds_range, positional) with
  | Some _, _ :: _ ->
      usage_error
        "--seeds and the ITERATIONS/BASE_SEED positionals are mutually \
         exclusive"
  | Some (lo, hi), [] -> (lo, hi)
  | None, positional ->
      (match positional with
      | _ :: _ :: _ :: _ ->
          usage_error "too many positional arguments (expected at most 2)"
      | _ -> ());
      let iterations =
        match positional with n :: _ -> int_pos "ITERATIONS" n | [] -> 500
      in
      if iterations < 1 then usage_error "ITERATIONS must be >= 1";
      let base =
        match positional with _ :: b :: _ -> int_pos "BASE_SEED" b | _ -> 0
      in
      (base, base + iterations - 1)

(* ------------------------------------------------------------------ *)
(* single-process fuzz loop (also the campaign worker body)           *)

let run_fuzz ~t0 ~lo ~hi ~jsonl_file =
  (match (!worker_id, jsonl_file) with
  | Some _, None -> usage_error "--worker requires --jsonl"
  | _ -> ());
  let iterations = hi - lo + 1 in
  let jsonl_oc = Option.map open_out jsonl_file in
  (match jsonl_oc with
  | Some oc ->
      (* workers flush per line so the coordinator's live tail sees
         records as they happen *)
      let w =
        {
          Jsonl.write =
            (fun line ->
              output_string oc line;
              output_char oc '\n';
              flush oc);
        }
      in
      jsonl := Some w;
      Jsonl.write_json w
        (Jsonl.meta_json ~config
           (Jsonl.run_meta ~variant:"fuzz" ~seed:lo
              ~engine:(Engine.name !engine) ~hardened:true "conair_fuzz"))
  | None -> ());
  for i = lo to hi do
    if !apps_mode then fuzz_app i
    else begin
      fuzz_arith i;
      fuzz_racy i;
      if (i - lo) mod 5 = 0 then fuzz_ring i;
      fuzz_wakeup i
    end
  done;
  if observing () then write_jsonl (Coverage.to_json cover);
  Printf.printf "conair_fuzz: %d checks over %d iterations (base seed %d)\n"
    !checked iterations lo;
  (* machine-readable one-line summary, for harnesses that scrape us *)
  let detect_fields =
    if not !detect then []
    else
      [
        ("detect_schedules", Json.Int !detect_schedules);
        ( "detected_races",
          Json.Obj
            (Hashtbl.fold (fun a n acc -> (a, Json.Int n) :: acc) detected []
            |> List.sort compare) );
      ]
  in
  let worker_fields =
    match !worker_id with
    | Some id -> [ ("worker", Json.Int id) ]
    | None -> []
  in
  let summary =
    Json.Obj
      ([
         ("type", Json.String "fuzz_summary");
         ("iterations", Json.Int iterations);
         ("base_seed", Json.Int lo);
         ("engine", Json.String (Engine.name !engine));
         ("elapsed_sec", Json.Float (Unix.gettimeofday () -. t0));
         ("checks", Json.Int !checked);
         ("hardened_runs", Json.Int !runs);
         ("total_runs", Json.Int !total_runs);
         ("findings", Json.Int !findings_count);
         ("failures", Json.Int (List.length !failures));
         ("recoveries", Json.Int !recoveries);
         ("max_episode_steps", Json.Int !max_episode);
       ]
      @ worker_fields @ detect_fields
      @
      match !record_dir with
      | None -> []
      | Some _ ->
          let paths l = Json.List (List.rev_map (fun p -> Json.String p) l) in
          [
            ("recorded_failing", paths !recorded_failing);
            ("recorded_recovered", paths !recorded_recovered);
          ])
  in
  print_endline (Json.to_string summary);
  (match (!jsonl, jsonl_oc) with
  | Some w, Some oc ->
      Jsonl.write_json w summary;
      close_out oc
  | _ -> ());
  match !failures with
  | [] ->
      print_endline "all checks passed";
      exit 0
  | fs ->
      Printf.printf "%d FAILURES:\n" (List.length fs);
      List.iter (fun f -> Printf.printf "  [%s] %s\n" f.case f.detail) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* campaign coordinator                                               *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  end

(* contiguous chunks: worker i gets [chunk_lo i .. chunk_hi i] *)
let chunk_range ~lo ~hi ~jobs i =
  let n = hi - lo + 1 in
  let base = n / jobs and rem = n mod jobs in
  let clo = lo + (i * base) + min i rem in
  let chi = clo + base - 1 + (if i < rem then 1 else 0) in
  (clo, chi)

type worker_proc = {
  p_id : int;
  p_pid : int;
  p_jsonl : string;
  mutable p_offset : int;
  mutable p_buf : string;
  mutable p_exit : int option;
}

let spawn_worker ~dir ~eng ~clo ~chi i =
  let jsonl_path =
    Filename.concat dir (Printf.sprintf "workers/worker-%d.jsonl" i)
  in
  let out_path =
    Filename.concat dir (Printf.sprintf "workers/worker-%d.out" i)
  in
  let logs_dir = Filename.concat dir (Printf.sprintf "logs/w%d" i) in
  mkdir_p logs_dir;
  let args =
    [
      Sys.executable_name;
      "--worker"; string_of_int i;
      "--seeds"; Printf.sprintf "%d..%d" clo chi;
      "--jsonl"; jsonl_path;
      "--engine"; Engine.name eng;
      "--record"; logs_dir;
    ]
    @ (if !detect then [ "--detect" ] else [])
    @ if !apps_mode then [ "--apps" ] else []
  in
  let out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      out out
  in
  Unix.close out;
  {
    p_id = i;
    p_pid = pid;
    p_jsonl = jsonl_path;
    p_offset = 0;
    p_buf = "";
    p_exit = None;
  }

(* incremental tail of one worker's JSONL stream: the complete lines
   appended since the last poll *)
let tail_lines p =
  if not (Sys.file_exists p.p_jsonl) then []
  else begin
    let len = (Unix.stat p.p_jsonl).Unix.st_size in
    if len <= p.p_offset then []
    else begin
      let ic = open_in_bin p.p_jsonl in
      seek_in ic p.p_offset;
      let chunk = really_input_string ic (len - p.p_offset) in
      close_in ic;
      p.p_offset <- len;
      let data = p.p_buf ^ chunk in
      let rec split acc s =
        match String.index_opt s '\n' with
        | None ->
            p.p_buf <- s;
            List.rev acc
        | Some k ->
            split
              (String.sub s 0 k :: acc)
              (String.sub s (k + 1) (String.length s - k - 1))
      in
      split [] data
    end
  end

let record_type line =
  match Json.of_string (String.trim line) with
  | Ok j -> (
      match Json.member "type" j with Some (Json.String t) -> t | _ -> "")
  | Error _ -> ""

(* Run one sharded campaign: spawn workers over the seed chunks, tail
   their streams into live Prometheus counters, fold the full streams
   through [Obs.Campaign], optionally minimize each unique finding into
   the corpus. Returns the folded campaign and whether every worker
   exited cleanly. *)
let run_campaign ~dir ~njobs ~lo ~hi ~eng ~minimize_corpus () =
  mkdir_p (Filename.concat dir "workers");
  mkdir_p (Filename.concat dir "logs");
  if minimize_corpus then mkdir_p (Filename.concat dir "corpus");
  let njobs = min njobs (hi - lo + 1) in
  let t_start = Unix.gettimeofday () in
  let procs =
    List.init njobs (fun i ->
        let clo, chi = chunk_range ~lo ~hi ~jobs:njobs i in
        spawn_worker ~dir ~eng ~clo ~chi i)
  in
  (* live metric instruments: same names [Campaign.metrics] uses, so the
     final fold lands in the same registry *)
  let live = Metrics.create () in
  let m_runs =
    Metrics.counter ~help:"runs executed" live "conair_campaign_runs_total"
  in
  let m_findings =
    Metrics.counter ~help:"failing runs found (duplicates included)" live
      "conair_campaign_findings_total"
  in
  Metrics.set
    (Metrics.gauge ~help:"worker streams folded" live
       "conair_campaign_workers")
    (float_of_int njobs);
  let metrics_path = Filename.concat dir "metrics.prom" in
  let expose () =
    Jsonl.write_file metrics_path (Metrics.to_prometheus live)
  in
  expose ();
  let poll () =
    let progressed = ref false in
    List.iter
      (fun p ->
        List.iter
          (fun line ->
            progressed := true;
            match record_type line with
            | "run" -> Metrics.inc m_runs
            | "finding" -> Metrics.inc m_findings
            | _ -> ())
          (tail_lines p))
      procs;
    !progressed
  in
  let rec wait_all () =
    let alive =
      List.filter
        (fun p ->
          match p.p_exit with
          | Some _ -> false
          | None -> (
              match Unix.waitpid [ Unix.WNOHANG ] p.p_pid with
              | 0, _ -> true
              | _, Unix.WEXITED c ->
                  p.p_exit <- Some c;
                  false
              | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
                  p.p_exit <- Some 126;
                  false))
        procs
    in
    if poll () then expose ();
    if alive <> [] then begin
      Unix.sleepf 0.05;
      wait_all ()
    end
  in
  wait_all ();
  ignore (poll ());
  expose ();
  let elapsed = Unix.gettimeofday () -. t_start in
  let workers_ok =
    List.for_all (fun p -> p.p_exit = Some 0) procs
  in
  List.iter
    (fun p ->
      match p.p_exit with
      | Some 0 | None -> ()
      | Some c ->
          Printf.eprintf "conair_fuzz: worker %d exited with %d (see %s)\n"
            p.p_id c
            (Filename.concat dir
               (Printf.sprintf "workers/worker-%d.out" p.p_id)))
    procs;
  let streams = List.map (fun p -> (p.p_id, read_lines p.p_jsonl)) procs in
  match Campaign.of_worker_lines ~elapsed streams with
  | Error e ->
      prerr_endline ("conair_fuzz: campaign fold failed: " ^ e);
      exit 2
  | Ok c ->
      let c =
        if not minimize_corpus then c
        else
          List.fold_left
            (fun c (f : Campaign.finding) ->
              match f.f_log with
              | None -> c
              | Some log_path -> (
                  let stem =
                    Printf.sprintf "%s-%s-%d"
                      (String.sub f.f_signature 0 12)
                      f.f_case f.f_seed
                  in
                  match Conair.Replay.Log.load log_path with
                  | Error e ->
                      Printf.eprintf
                        "conair_fuzz: corpus: cannot load %s: %s\n" log_path e;
                      c
                  | Ok log -> (
                      (* every unique finding also gets a post-mortem
                         diagnostic bundle in the corpus, regenerated
                         from the recorded log by deterministic re-run *)
                      (match Conair.flight_of_log log with
                      | Ok bundle ->
                          Conair.Obs.Flight.save bundle
                            (Filename.concat dir
                               (Printf.sprintf "corpus/%s.bundle.json" stem))
                      | Error e ->
                          Printf.eprintf
                            "conair_fuzz: corpus: bundle for %s: %s\n"
                            log_path e);
                      match Conair.minimize ~engine:eng ~detect:false log with
                      | Ok m ->
                          let dest =
                            Filename.concat dir
                              (Printf.sprintf "corpus/%s.sched.jsonl" stem)
                          in
                          Conair.Replay.Log.save
                            m.Conair.Replay.Minimize.mn_log dest;
                          Campaign.set_minimized c ~signature:f.f_signature
                            ~path:dest
                      | Error _ ->
                          (* e.g. a random-policy recording the directed
                             feed cannot reproduce: keep the raw log as
                             the corpus entry *)
                          let dest =
                            Filename.concat dir
                              (Printf.sprintf "corpus/%s-raw.sched.jsonl" stem)
                          in
                          Jsonl.write_file dest
                            (String.concat "\n" (read_lines log_path) ^ "\n");
                          Campaign.set_minimized c ~signature:f.f_signature
                            ~path:dest)))
            c c.Campaign.c_findings
      in
      ignore (Campaign.metrics ~into:live c);
      expose ();
      Jsonl.write_file
        (Filename.concat dir "report.json")
        (Json.to_string_pretty (Campaign.to_json c) ^ "\n");
      (c, workers_ok)

let effective_jobs () = if !jobs > 0 then !jobs else 4

let run_campaign_main ~lo ~hi =
  let dir =
    match !campaign_dir with Some d -> d | None -> "fuzz-campaign"
  in
  let c, ok =
    run_campaign ~dir ~njobs:(effective_jobs ()) ~lo ~hi ~eng:!engine
      ~minimize_corpus:true ()
  in
  List.iter print_endline (Campaign.render c);
  Printf.printf "report: %s\n" (Filename.concat dir "report.json");
  Printf.printf "metrics: %s\n" (Filename.concat dir "metrics.prom");
  exit (if ok then 0 else 1)

(* --bench FILE: one campaign per engine; the BENCH_fuzz.json document
   compares runs/sec and checks the signature digests agree — the
   end-to-end differential test *)
let run_bench ~file ~lo ~hi =
  let base_dir =
    match !campaign_dir with Some d -> d | None -> "fuzz-campaign"
  in
  let njobs = effective_jobs () in
  let results, all_ok =
    List.fold_left
      (fun (acc, ok) eng ->
        let name = Engine.name eng in
        Printf.printf "bench: engine %s...\n%!" name;
        let dir = Filename.concat base_dir ("bench-" ^ name) in
        let c, this_ok =
          run_campaign ~dir ~njobs ~lo ~hi ~eng ~minimize_corpus:false ()
        in
        ((name, c) :: acc, ok && this_ok))
      ([], true) Engine.all
  in
  let results = List.rev results in
  let doc =
    Campaign.bench_json ~jobs:njobs ~iterations:(hi - lo + 1) results
  in
  Jsonl.write_file file (Json.to_string_pretty doc ^ "\n");
  let agreement =
    match Json.member "signature_agreement" doc with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  List.iter
    (fun (name, c) ->
      Printf.printf "  %-6s %7.1f runs/sec  %3d unique signatures  md5 %s\n"
        name c.Campaign.c_runs_per_sec
        (List.length c.Campaign.c_findings)
        (String.sub (Campaign.signatures_digest c) 0 12))
    results;
  Printf.printf "signature agreement across engines: %b\n" agreement;
  Printf.printf "wrote %s\n" file;
  exit (if all_ok && agreement then 0 else 1)

let () =
  let t0 = Unix.gettimeofday () in
  let jsonl_file, positional = parse_argv () in
  let lo, hi = resolve_seed_range positional in
  match !bench_file with
  | Some file -> run_bench ~file ~lo ~hi
  | None ->
      if !worker_id = None && (!jobs > 0 || !campaign_dir <> None) then
        run_campaign_main ~lo ~hi
      else run_fuzz ~t0 ~lo ~hi ~jsonl_file
