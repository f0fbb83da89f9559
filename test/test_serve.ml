(* The recovery-as-a-service layer: protocol codecs (round-trips,
   malformed input, the inline-payload size guard), the per-tenant FIFO
   worker pool (ordering, backpressure, shutdown draining), the
   per-connection outbox (delivery, dead-peer discard), an in-process
   end-to-end exchange over a Unix socket (ack -> telemetry -> result,
   report identical to direct [Job.execute], survival of an abrupt
   client disconnect), the hook re-entrancy property the daemon leans on
   (interleaved in-process runs with different probes produce the same
   reports as sequential runs), the one-executor guarantees (a served
   failure bundle replays against the registry program its ident names;
   the CLI's job documents and exit codes equal [Job.execute]'s, also
   when one run writes every artifact at once), and
   the [Obs.Aggregate] guards against degenerate percentile and
   throughput inputs. *)

module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Aggregate = Conair.Obs.Aggregate
module Machine = Conair.Runtime.Machine
module Sched = Conair.Runtime.Sched
module Engine = Conair.Runtime.Engine
module Protocol = Conair_server.Protocol
module Pool = Conair_server.Pool
module Outbox = Conair_server.Outbox
module Job = Conair_server.Job
module Server = Conair_server.Server
module Client = Conair_server.Client
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

let mb = 1_000_000

(* --- protocol codecs ------------------------------------------------ *)

let roundtrip (r : Protocol.request) =
  let line = Protocol.request_to_line r in
  match Protocol.request_of_line ~max_program_bytes:mb line with
  | Error e -> Alcotest.failf "decode of %s: %s" line e
  | Ok r' ->
      Alcotest.(check string) "round-trips" line (Protocol.request_to_line r')

let protocol_roundtrip () =
  let bench = Protocol.Bench { app = "HawkNL"; variant = "buggy"; oracle = false } in
  let exec = { Protocol.default_exec with seed = Some 7; fuel = 100_000 } in
  List.iter roundtrip
    [
      Protocol.Submit
        {
          tenant = "t0";
          id = "j0";
          job = Protocol.Run { target = bench; mode = "survival"; exec };
        };
      Protocol.Submit
        {
          tenant = "t0";
          id = "j1";
          job = Protocol.Harden { target = bench; mode = "fix" };
        };
      Protocol.Submit
        {
          tenant = "t1";
          id = "j2";
          job = Protocol.Detect { target = bench; original = true; exec };
        };
      Protocol.Submit
        {
          tenant = "t1";
          id = "j3";
          job =
            Protocol.Minimize
              { log = [ "{\"type\":\"meta\"}" ]; max_tests = 40; detect = false };
        };
      Protocol.Submit
        {
          tenant = "t2";
          id = "j4";
          job =
            Protocol.Fuzz { target = bench; runs = 3; base_seed = 11; exec };
        };
      Protocol.Submit
        {
          tenant = "t2";
          id = "j5";
          job =
            Protocol.Run
              {
                target = Protocol.Source "thread t0 { nop }";
                mode = "none";
                exec = Protocol.default_exec;
              };
        };
      Protocol.Status;
      Protocol.Metrics;
      Protocol.Spans { tenant = "t0"; id = "j0" };
      Protocol.Ping;
      Protocol.Shutdown;
    ]

let rejects line why =
  match Protocol.request_of_line ~max_program_bytes:mb line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "accepted %s (%s)" line why

let protocol_malformed () =
  rejects "not json at all" "unparsable line";
  rejects "{\"op\":\"frobnicate\"}" "unknown op";
  rejects "{\"op\":\"submit\"}" "submit without tenant/id/kind";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"warp"}|}
    "unknown job kind";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"run","app":"HawkNL","mode":"sideways"}|}
    "unknown mode";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"run","app":"HawkNL","engine":"warp9"}|}
    "unknown engine";
  rejects
    {|{"op":"submit","tenant":"","id":"j","kind":"run","app":"HawkNL"}|}
    "empty tenant";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"run","app":"HawkNL","fuel":0}|}
    "zero fuel";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"run","app":"HawkNL","fuel":-1}|}
    "negative fuel";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"detect","app":"HawkNL","max_retries":-1}|}
    "negative retry budget";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"minimize","log":["x"],"max_tests":0}|}
    "zero minimize budget";
  rejects
    {|{"op":"submit","tenant":"t","id":"j","kind":"minimize","log":["x"],"max_tests":-3}|}
    "negative minimize budget";
  (* well-formed requests still decode after the failures above *)
  match Protocol.request_of_line ~max_program_bytes:mb {|{"op":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping stopped decoding"

let protocol_oversized () =
  let big = String.make 200 'x' in
  let line =
    Printf.sprintf
      {|{"op":"submit","tenant":"t","id":"j","kind":"run","program":%s}|}
      (Json.to_string (Json.String big))
  in
  (match Protocol.request_of_line ~max_program_bytes:100 line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized inline source accepted");
  (match Protocol.request_of_line ~max_program_bytes:1_000 line with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "within-budget source rejected: %s" e);
  let log_line = String.make 60 'y' in
  let min_line =
    Printf.sprintf
      {|{"op":"submit","tenant":"t","id":"j","kind":"minimize","log":[%s,%s,%s]}|}
      (Json.to_string (Json.String log_line))
      (Json.to_string (Json.String log_line))
      (Json.to_string (Json.String log_line))
  in
  (match Protocol.request_of_line ~max_program_bytes:100 min_line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized minimize log accepted");
  match Protocol.request_of_line ~max_program_bytes:1_000 min_line with
  | Ok (Protocol.Submit { job = Protocol.Minimize { log; _ }; _ }) ->
      Alcotest.(check int) "log lines survive decoding" 3 (List.length log)
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error e -> Alcotest.failf "within-budget log rejected: %s" e

(* --- the worker pool ------------------------------------------------ *)

let pool_fifo_per_tenant () =
  let pool = Pool.create ~workers:3 ~max_pending:64 () in
  let mu = Mutex.create () in
  let seen = ref [] in
  let tenants = [ "a"; "b"; "c" ] in
  List.iter
    (fun tenant ->
      for i = 0 to 19 do
        match
          Pool.submit pool ~tenant (fun () ->
              Mutex.lock mu;
              seen := (tenant, i) :: !seen;
              Mutex.unlock mu)
        with
        | Ok seq -> Alcotest.(check int) "per-tenant sequence" i seq
        | Error e -> Alcotest.failf "submit refused: %s" e
      done)
    tenants;
  Pool.wait_drained pool;
  Pool.shutdown pool;
  let order = List.rev !seen in
  Alcotest.(check int) "all jobs ran" 60 (List.length order);
  List.iter
    (fun tenant ->
      let mine =
        List.filter_map
          (fun (t, i) -> if t = tenant then Some i else None)
          order
      in
      Alcotest.(check (list int))
        (tenant ^ " in submission order")
        (List.init 20 Fun.id) mine)
    tenants

let pool_backpressure () =
  let pool = Pool.create ~workers:1 ~max_pending:2 () in
  let gate_mu = Mutex.create () and gate_cv = Condition.create () in
  let open_gate = ref false in
  let ran = ref 0 and ran_mu = Mutex.create () in
  let job blocking () =
    if blocking then begin
      Mutex.lock gate_mu;
      while not !open_gate do
        Condition.wait gate_cv gate_mu
      done;
      Mutex.unlock gate_mu
    end;
    Mutex.lock ran_mu;
    incr ran;
    Mutex.unlock ran_mu
  in
  (* job 1 runs and blocks on the gate; job 2 fills the queue *)
  (match Pool.submit pool ~tenant:"t" (job true) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit 1: %s" e);
  (match Pool.submit pool ~tenant:"t" (job false) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit 2: %s" e);
  (* job 3 must block in submit until a slot frees — not be dropped,
     not error, and not hang forever once the gate opens *)
  let third_done = ref false in
  let submitter =
    Thread.create
      (fun () ->
        (match Pool.submit pool ~tenant:"t" (job false) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit 3: %s" e);
        third_done := true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "third submit is blocked" false !third_done;
  Mutex.lock gate_mu;
  open_gate := true;
  Condition.broadcast gate_cv;
  Mutex.unlock gate_mu;
  Thread.join submitter;
  Alcotest.(check bool) "third submit completed" true !third_done;
  Pool.wait_drained pool;
  Pool.shutdown pool;
  Alcotest.(check int) "all three jobs ran" 3 !ran

let pool_shutdown_drains () =
  let pool = Pool.create ~workers:2 ~max_pending:64 () in
  let ran = ref 0 and mu = Mutex.create () in
  for _ = 1 to 10 do
    match
      Pool.submit pool ~tenant:"t" (fun () ->
          Thread.delay 0.002;
          Mutex.lock mu;
          incr ran;
          Mutex.unlock mu)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit: %s" e
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "shutdown drained every accepted job" 10 !ran;
  match Pool.submit pool ~tenant:"t" (fun () -> ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit accepted after shutdown"

(* --- the outbox ----------------------------------------------------- *)

let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> ()

let outbox_delivers () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let ob = Outbox.create ~max:8 a in
  Outbox.send ob "one";
  Outbox.send ob "two";
  Outbox.send ob "three";
  Outbox.close ob;
  Unix.close a;
  let ic = Unix.in_channel_of_descr b in
  let lines =
    List.init 3 (fun _ ->
        Option.value ~default:"<eof>" (In_channel.input_line ic))
  in
  Unix.close b;
  Alcotest.(check (list string))
    "lines in order" [ "one"; "two"; "three" ] lines

let outbox_dead_peer_discards () =
  ignore_sigpipe ();
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close b;
  let ob = Outbox.create ~max:4 a in
  (* far more lines than the queue bound: if discard mode did not kick
     in, this loop would block forever on a full queue *)
  for i = 1 to 200 do
    Outbox.send ob (string_of_int i)
  done;
  Alcotest.(check bool) "peer marked dead" true (Outbox.is_dead ob);
  Outbox.close ob;
  Unix.close a

(* --- end to end over a Unix socket ---------------------------------- *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "conair-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let run_spec =
  Protocol.Run
    {
      target = Protocol.Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
      mode = "survival";
      exec = { Protocol.default_exec with seed = Some 5; fuel = 400_000 };
    }

let with_server k =
  let sock = fresh_socket () in
  (try Sys.remove sock with Sys_error _ -> ());
  let cfg =
    {
      (Server.default_config (Server.Unix_path sock)) with
      workers = 2;
      max_pending = 8;
    }
  in
  let _server, thread = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      k (Server.Unix_path sock);
      let c = Client.connect (Server.Unix_path sock) in
      Client.send c Protocol.Shutdown;
      (match Client.recv_until c (fun f -> Client.frame_type f = "bye") with
      | Some _ -> ()
      | None -> Alcotest.fail "no bye frame on shutdown");
      Client.close c;
      Thread.join thread)

let str_member key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> ""

let serve_end_to_end () =
  with_server @@ fun address ->
  let c = Client.connect address in
  Client.send c Protocol.Ping;
  (match Client.recv c with
  | Some f when Client.frame_type f = "pong" -> ()
  | _ -> Alcotest.fail "no pong");
  (match Client.submit c ~tenant:"acme" ~id:"r1" run_spec with
  | Error e -> Alcotest.failf "submit: %s" e
  | Ok (result, telemetry) ->
      Alcotest.(check string) "status ok" "ok" (str_member "status" result);
      Alcotest.(check bool)
        "run job streams telemetry" true
        (List.length telemetry > 0);
      let direct = Job.execute run_spec in
      let served =
        match Json.member "report" result with
        | Some r -> Json.to_string r
        | None -> Alcotest.fail "result without report"
      in
      Alcotest.(check string)
        "served report identical to direct execution"
        (Json.to_string direct.Job.jr_report)
        served);
  (* status endpoint reflects the completed job *)
  Client.send c Protocol.Status;
  (match Client.recv_until c (fun f -> Client.frame_type f = "serve_status") with
  | None -> Alcotest.fail "no status frame"
  | Some f -> (
      match Json.member "tenants" f with
      | Some (Json.List ts) ->
          Alcotest.(check bool)
            "tenant acme appears" true
            (List.exists (fun t -> str_member "tenant" t = "acme") ts)
      | _ -> Alcotest.fail "status without tenants"));
  Client.close c

let serve_malformed_line_keeps_connection () =
  with_server @@ fun address ->
  let sock = match address with Server.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let write_line s =
    let b = Bytes.of_string (s ^ "\n") in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  let ic = Unix.in_channel_of_descr fd in
  let read_type () =
    match In_channel.input_line ic with
    | None -> "<eof>"
    | Some line -> (
        match Json.of_string line with
        | Ok j -> str_member "type" j
        | Error e -> "<bad: " ^ e ^ ">")
  in
  write_line "this is not json";
  Alcotest.(check string) "malformed line yields an error frame" "error"
    (read_type ());
  write_line (Protocol.request_to_line Protocol.Ping);
  Alcotest.(check string) "connection survives the error" "pong"
    (read_type ());
  Unix.close fd

let serve_survives_disconnect () =
  with_server @@ fun address ->
  (* first client submits a job and vanishes without reading frames *)
  let c1 = Client.connect address in
  Client.send c1
    (Protocol.Submit { tenant = "ghost"; id = "g1"; job = run_spec });
  Client.close c1;
  (* the daemon must still serve a fresh connection end to end *)
  let c2 = Client.connect address in
  (match Client.submit c2 ~tenant:"live" ~id:"l1" run_spec with
  | Error e -> Alcotest.failf "post-disconnect submit: %s" e
  | Ok (result, _) ->
      Alcotest.(check string) "status ok" "ok" (str_member "status" result));
  Client.close c2

(* --- hook re-entrancy: interleaved runs match sequential ------------ *)

let instance app =
  match Registry.find app with
  | None -> Alcotest.failf "no bench %s" app
  | Some spec -> spec.Spec.make ~variant:Spec.Buggy ~oracle:false

let report_of ?trace_writer app seed =
  let inst = instance app in
  let config =
    { Machine.default_config with fuel = 400_000; policy = Sched.Random seed }
  in
  let rr =
    Conair.run_observed ~config ?trace_writer
      (Conair.Hardened (Conair.harden_exn inst.Spec.program Conair.Survival))
  in
  Json.to_string rr.Conair.report

let interleaved_runs_match_sequential () =
  (* sequential baselines: one run traced, one untraced *)
  let traced_lines = ref 0 in
  let w = { Jsonl.write = (fun _ -> incr traced_lines) } in
  let seq_a = report_of ~trace_writer:w "HawkNL" 5 in
  let seq_b = report_of "MySQL1" 9 in
  Alcotest.(check bool) "probe observed events" true (!traced_lines > 0);
  (* same two runs concurrently, with different probe configurations —
     per-run hook bundles mean neither observes the other *)
  let out_a = ref "" and out_b = ref "" in
  let ta =
    Thread.create
      (fun () ->
        let w = { Jsonl.write = (fun _ -> ()) } in
        out_a := report_of ~trace_writer:w "HawkNL" 5)
      ()
  in
  let tb = Thread.create (fun () -> out_b := report_of "MySQL1" 9) () in
  Thread.join ta;
  Thread.join tb;
  Alcotest.(check string) "traced run unchanged when interleaved" seq_a !out_a;
  Alcotest.(check string) "untraced run unchanged when interleaved" seq_b
    !out_b

(* --- one executor: served bundles and CLI documents ----------------- *)

let bench app = Protocol.Bench { app; variant = "buggy"; oracle = false }

(* A failed served run's bundle names the program that ran: the log it
   regenerates replays against the registry program rebuilt from the
   log's own variant and oracle flag — for apps that need an oracle to
   see their wrong-output failure too. *)
let served_bundle_replays_on_registry () =
  List.iter
    (fun app ->
      let o =
        Job.execute
          (Protocol.Run
             {
               target = bench app;
               mode = "none";
               exec = Protocol.default_exec;
             })
      in
      Alcotest.(check int)
        (app ^ ": the unhardened run fails")
        2 o.Job.jr_exit;
      let doc =
        match o.Job.jr_bundle with
        | Some doc -> doc
        | None -> Alcotest.failf "%s: no bundle" app
      in
      let log =
        match Conair.Obs.Flight.of_json doc with
        | Error e -> Alcotest.failf "%s: bundle: %s" app e
        | Ok b -> (
            match Conair.Replay.Bundle.recover_log b with
            | Error e -> Alcotest.failf "%s: recover: %s" app e
            | Ok log -> log)
      in
      let id = log.Conair.Replay.Log.ident in
      let inst =
        (Option.get (Registry.find id.Conair.Replay.Log.id_app)).Spec.make
          ~variant:
            (if id.Conair.Replay.Log.id_variant = "clean" then Spec.Clean
             else Spec.Buggy)
          ~oracle:id.Conair.Replay.Log.id_oracle
      in
      match Conair.replay ~program:inst.Spec.program log with
      | Error e ->
          Alcotest.failf "%s: replay on the registry program: %s" app
            (Conair.Replay.Driver.error_to_string e)
      | Ok rb ->
          Alcotest.(check bool) (app ^ ": faithful replay") true
            (Conair.Replay.Driver.check log rb = Ok ()))
    [ "MySQL1"; "FFT"; "HawkNL" ]

let cli_path () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/conair_cli.exe"; "_build/default/bin/conair_cli.exe" ]
  with
  | Some cli -> cli
  | None -> Alcotest.fail "conair_cli.exe not built"

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Every file the CLI writes for a job kind is the byte encoding of the
   in-process [Job.execute] result for the same inputs, and the exit
   codes agree: report --out, races --json, minimize --json, fix --json
   and run --no-harden --flight, on a wrong-output and a deadlock app. *)
let cli_matches_job () =
  let cli = cli_path () in
  let dir = Filename.temp_dir "conair-parity" "" in
  let path name = Filename.concat dir name in
  let cli_exit args =
    Sys.command
      (Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null
         args)
  in
  let same what ~file args spec ~bytes_of =
    let o = Job.execute spec in
    Alcotest.(check int) (what ^ ": exit code") o.Job.jr_exit (cli_exit args);
    Alcotest.(check string) (what ^ ": document") (bytes_of o) (read_file file)
  in
  let pretty (o : Job.outcome) = Json.to_string_pretty o.Job.jr_report in
  let exec = Protocol.default_exec in
  let check app =
    let target = bench app and lower = String.lowercase_ascii app in
    let out kind = path (lower ^ "." ^ kind ^ ".json") in
    same (app ^ " report") ~file:(out "report")
      [ "report"; app; "--out"; out "report" ]
      (Protocol.Run { target; mode = "survival"; exec })
      ~bytes_of:pretty;
    same (app ^ " races") ~file:(out "races")
      [ "races"; app; "--json"; out "races" ]
      (Protocol.Detect { target; original = false; exec })
      ~bytes_of:pretty;
    same (app ^ " fix") ~file:(out "fix")
      [
        "fix"; app; "--sweep-seeds"; "4"; "--search-seeds"; "4"; "--json";
        out "fix";
      ]
      (Protocol.Fix
         {
           target;
           max_candidates = 8;
           sweep_seeds = 4;
           search_seeds = 4;
           exec;
         })
      ~bytes_of:pretty;
    same (app ^ " run --flight")
      ~file:(path ("flight_" ^ lower ^ ".bundle.json"))
      [ "run"; app; "--no-harden"; "--flight"; "--bundle-out"; dir ]
      (Protocol.Run { target; mode = "none"; exec })
      ~bytes_of:(fun o ->
        match o.Job.jr_bundle with
        | Some doc -> Json.to_string doc ^ "\n"
        | None -> Alcotest.failf "%s: served run kept no bundle" app);
    let log = path (lower ^ ".sched.jsonl") in
    Alcotest.(check int) (app ^ " record: exit code") 2
      (cli_exit [ "run"; app; "--no-harden"; "--record"; log ]);
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (In_channel.with_open_text log In_channel.input_lines)
    in
    same (app ^ " minimize") ~file:(out "minimize")
      [ "minimize"; "--log"; log; "--json"; out "minimize" ]
      (Protocol.Minimize { log = lines; max_tests = 2000; detect = true })
      ~bytes_of:pretty
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> List.iter check [ "MySQL1"; "HawkNL" ])

(* One CLI invocation carries every artifact: [run APP --record L
   --flight --trace-json T --metrics M --spans S] executes once, and
   each file equals the artifact a separate run produces — a traced
   [Job.run]'s trace and metrics, [Job.execute]'s spans and (for a
   failed run) bundle, a ring-only run's bundle otherwise, and the
   [record_run] / [run_recorded] log — with [Job.execute]'s exit code. *)
let cli_single_run_parity () =
  let cli = cli_path () in
  let dir = Filename.temp_dir "conair-single-run" "" in
  let path name = Filename.concat dir name in
  let exec = Protocol.default_exec in
  let config = Job.config_of_exec exec and engine = exec.Protocol.engine in
  let check (app, mode) =
    let what = app ^ " " ^ mode in
    let ok = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
    let t = ok (Job.resolve (bench app)) in
    let mode_v = ok (Job.mode_of t mode) in
    let log = path "run.sched.jsonl" and trace = path "trace.jsonl" in
    let metrics = path "metrics.json" and spans = path "spans.json" in
    let exit =
      Sys.command
        (Filename.quote_command cli ~stdout:Filename.null
           ~stderr:Filename.null
           ([
              "run"; app; "--record"; log; "--flight"; "--bundle-out"; dir;
              "--trace-json"; trace; "--metrics"; metrics; "--spans"; spans;
            ]
           @ if mode = "none" then [ "--no-harden" ] else []))
    in
    let served =
      Job.execute (Protocol.Run { target = bench app; mode; exec })
    in
    Alcotest.(check int) (what ^ ": exit code") served.Job.jr_exit exit;
    let same artifact expected file =
      Alcotest.(check string) (what ^ ": " ^ artifact) expected (read_file file)
    in
    let b = Buffer.create 4096 in
    let traced =
      Job.run ~trace_writer:(Jsonl.buffer_writer b) t ~mode:mode_v exec
    in
    same "trace" (Buffer.contents b) trace;
    same "metrics"
      (Json.to_string_pretty
         (Conair.Obs.Metrics.to_json traced.Job.value.Conair.metrics))
      metrics;
    same "spans"
      (Json.to_string_pretty (Option.get served.Job.jr_spans))
      spans;
    let ident =
      Conair.Replay.Log.ident ~variant:t.variant ~oracle:t.oracle ~mode
        t.label
    in
    let subject =
      match mode_v with
      | None -> Conair.Program t.inst.program
      | Some m -> Conair.Hardened (Conair.harden_exn t.inst.program m)
    in
    let _, expected_log =
      match subject with
      | Conair.Program p -> Conair.record_run ~config ~engine ~ident p
      | Conair.Hardened h -> Conair.run_recorded ~config ~engine ~ident h
    in
    same "schedule log" (Conair.Replay.Log.to_string expected_log) log;
    same "flight bundle"
      (match served.Job.jr_bundle with
      | Some doc -> Json.to_string doc ^ "\n"
      | None ->
          let r = Conair.run ~config ~engine ~ident ~flight:true subject in
          Conair.Obs.Flight.to_string (Lazy.force (Option.get r.Conair.bundle)))
      (path ("flight_" ^ String.lowercase_ascii app ^ ".bundle.json"))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter check
        [ ("MySQL1", "none"); ("HawkNL", "none"); ("HawkNL", "survival") ])

(* --- Aggregate guards ----------------------------------------------- *)

let aggregate_percentile_guards () =
  Alcotest.(check int) "empty list" 0 (Aggregate.percentile [] 50.);
  Alcotest.(check int) "empty list, NaN p" 0 (Aggregate.percentile [] Float.nan);
  Alcotest.(check int)
    "NaN p clamps to 0 (min)" 1
    (Aggregate.percentile [ 3; 1; 2 ] Float.nan);
  Alcotest.(check int)
    "p over 100 clamps to max" 3
    (Aggregate.percentile [ 3; 1; 2 ] 150.);
  Alcotest.(check int)
    "negative p clamps to min" 1
    (Aggregate.percentile [ 3; 1; 2 ] (-10.));
  Alcotest.(check int) "p50 of singleton" 7 (Aggregate.percentile [ 7 ] 50.)

let record fields = Json.Obj (("type", Json.String "run") :: fields)

let aggregate_throughput_guards () =
  let empty = Aggregate.of_records [] in
  Alcotest.(check int) "no runs" 0 empty.Aggregate.g_runs;
  Alcotest.(check (float 0.)) "no runs -> zero runs/sec" 0.
    empty.Aggregate.g_runs_per_sec;
  let run =
    record
      [
        ("outcome", Json.String "success");
        ("steps", Json.Int 10);
        ("episodes", Json.Int 0);
      ]
  in
  let summary elapsed =
    Json.Obj
      [
        ("type", Json.String "fuzz_summary");
        ("engine", Json.String "fast");
        ("elapsed_sec", elapsed);
      ]
  in
  let zero = Aggregate.of_records [ run; summary (Json.Float 0.) ] in
  Alcotest.(check (float 0.)) "zero elapsed -> zero runs/sec" 0.
    zero.Aggregate.g_runs_per_sec;
  let nan = Aggregate.of_records [ run; summary (Json.Float Float.nan) ] in
  Alcotest.(check (float 0.)) "NaN elapsed ignored" 0.
    nan.Aggregate.g_runs_per_sec;
  let neg = Aggregate.of_records [ run; summary (Json.Float (-3.)) ] in
  Alcotest.(check (float 0.)) "negative elapsed ignored" 0.
    neg.Aggregate.g_runs_per_sec;
  let ok = Aggregate.of_records [ run; summary (Json.Float 2.) ] in
  Alcotest.(check (float 0.001)) "positive elapsed folds" 0.5
    ok.Aggregate.g_runs_per_sec;
  (* the JSON document stays finite for every degenerate input *)
  List.iter
    (fun (a : Aggregate.t) ->
      match Json.of_string (Json.to_string (Aggregate.to_json a)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "aggregate JSON does not round-trip: %s" e)
    [ empty; zero; nan; neg; ok ]

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "round-trips" `Quick protocol_roundtrip;
        Alcotest.test_case "malformed requests" `Quick protocol_malformed;
        Alcotest.test_case "oversized payloads" `Quick protocol_oversized;
      ] );
    ( "serve.pool",
      [
        Alcotest.test_case "per-tenant FIFO" `Quick pool_fifo_per_tenant;
        Alcotest.test_case "backpressure blocks, not drops" `Quick
          pool_backpressure;
        Alcotest.test_case "shutdown drains" `Quick pool_shutdown_drains;
      ] );
    ( "serve.outbox",
      [
        Alcotest.test_case "delivers in order" `Quick outbox_delivers;
        Alcotest.test_case "dead peer discards" `Quick
          outbox_dead_peer_discards;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "end to end" `Quick serve_end_to_end;
        Alcotest.test_case "malformed line keeps connection" `Quick
          serve_malformed_line_keeps_connection;
        Alcotest.test_case "survives client disconnect" `Quick
          serve_survives_disconnect;
      ] );
    ( "serve.reentrancy",
      [
        Alcotest.test_case "interleaved runs match sequential" `Quick
          interleaved_runs_match_sequential;
      ] );
    ( "serve.executor",
      [
        Alcotest.test_case "served bundles replay on the registry program"
          `Quick served_bundle_replays_on_registry;
        Alcotest.test_case "CLI documents are Job's" `Quick cli_matches_job;
        Alcotest.test_case "one CLI run carries every artifact" `Quick
          cli_single_run_parity;
      ] );
    ( "serve.aggregate",
      [
        Alcotest.test_case "percentile guards" `Quick
          aggregate_percentile_guards;
        Alcotest.test_case "throughput guards" `Quick
          aggregate_throughput_guards;
      ] );
  ]
