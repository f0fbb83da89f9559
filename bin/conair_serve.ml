(* conair_serve — the recovery-as-a-service daemon and its stress
   driver.

     conair_serve serve  --socket /tmp/conair.sock
     conair_serve stress --tenants 10 --jobs 12 --out-dir .

   [serve] runs the daemon until a client sends a shutdown request.
   [stress] spawns its own daemon child, fires a mixed concurrent job
   load from many tenants over pipelined connections, and asserts the
   service guarantees: every job completes, each tenant's results
   arrive in submission order, and every report is byte-identical to
   the same job executed in-process (hence to the CLI, which shares
   the code path). It also scrapes the Prometheus endpoint, the status
   document and a spans export into --out-dir for validation. *)

open Cmdliner
module Json = Conair_server.Protocol.Json
module Jsonl = Conair.Obs.Jsonl
module Protocol = Conair_server.Protocol
module Server = Conair_server.Server
module Client = Conair_server.Client
module Job = Conair_server.Job
module Spec = Conair_bugbench.Bench_spec

(* --- serve --------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on 127.0.0.1:$(docv) instead of a Unix socket.")

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker pool size.")

let max_pending_arg =
  Arg.(
    value & opt int 256
    & info [ "max-pending" ]
        ~doc:"Queued-or-running job bound (backpressure past it).")

let max_program_bytes_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "max-program-bytes" ]
        ~doc:"Inline payload (program text, schedule log) size limit.")

let address_of socket port =
  match (socket, port) with
  | Some path, None -> Ok (Server.Unix_path path)
  | None, Some p -> Ok (Server.Tcp ("127.0.0.1", p))
  | None, None -> Ok (Server.Unix_path "conair_serve.sock")
  | Some _, Some _ -> Error "give at most one of --socket and --port"

let serve_cmd =
  let run socket port workers max_pending max_program_bytes =
    match address_of socket port with
    | Error e -> prerr_endline e; 1
    | Ok address ->
        let cfg =
          {
            (Server.default_config address) with
            Server.workers;
            max_pending;
            max_program_bytes;
          }
        in
        let t = Server.create cfg in
        (match address with
        | Server.Unix_path p -> Printf.printf "listening on %s\n%!" p
        | Server.Tcp (h, p) -> Printf.printf "listening on %s:%d\n%!" h p);
        Server.serve t;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the recovery-as-a-service daemon until a client sends a \
          shutdown request.")
    Term.(
      const run $ socket_arg $ port_arg $ workers_arg $ max_pending_arg
      $ max_program_bytes_arg)

(* --- stress -------------------------------------------------------- *)

(* The mixed job menu. Every tenant cycles through it, seeds varied by
   (tenant, index) so runs differ while staying deterministic. *)
let job_menu ~minimize_log ~tenant_ix ~job_ix =
  let seed = (tenant_ix * 100) + job_ix in
  let with_seed seed = { Protocol.default_exec with Protocol.seed } in
  match job_ix mod 7 with
  | 0 ->
      Protocol.Run
        {
          target = Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
          mode = "survival";
          exec = with_seed (Some seed);
        }
  | 1 ->
      Protocol.Run
        {
          target = Bench { app = "MySQL1"; variant = "buggy"; oracle = false };
          mode = "survival";
          exec = Protocol.default_exec;
        }
  | 2 ->
      Protocol.Detect
        {
          target = Bench { app = "FFT"; variant = "buggy"; oracle = false };
          original = false;
          exec = Protocol.default_exec;
        }
  | 3 ->
      Protocol.Harden
        {
          target = Bench { app = "SQLite"; variant = "buggy"; oracle = false };
          mode = "survival";
        }
  | 4 ->
      Protocol.Fuzz
        {
          target = Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
          runs = 3;
          base_seed = seed;
          exec = Protocol.default_exec;
        }
  | 5 ->
      Protocol.Fix
        {
          target = Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
          max_candidates = 4;
          sweep_seeds = 8;
          search_seeds = 4;
          exec = Protocol.default_exec;
        }
  | _ ->
      Protocol.Minimize { log = minimize_log; max_tests = 400; detect = false }

(* A failing recorded schedule for the minimize jobs: HawkNL's
   unhardened deadlock under round-robin, recorded in-process. *)
let minimize_log_lines () =
  match Conair_bugbench.Registry.find "HawkNL" with
  | None -> failwith "HawkNL missing from the registry"
  | Some spec ->
      let inst = spec.Spec.make ~variant:Spec.Buggy ~oracle:false in
      let config =
        { Conair_runtime.Machine.default_config with fuel = 200_000 }
      in
      let _, log =
        Conair.record_run ~config
          ~ident:(Conair.Replay.Log.ident ~variant:"buggy" "HawkNL")
          inst.Spec.program
      in
      Conair.Replay.Log.to_lines log

(* One tenant's worth of load, fully pipelined: send every submit
   first, then read frames back until every result arrived (or EOF).
   Returns the submitted (id, spec) list, the (id, frame) results in
   arrival order, and any errors. *)
let drive_tenant ~address ~tenant ~tenant_ix ~jobs ~minimize_log =
  let c = Client.connect address in
  let specs =
    List.init jobs (fun j ->
        ( Printf.sprintf "%s-job%03d" tenant j,
          job_menu ~minimize_log ~tenant_ix ~job_ix:j ))
  in
  List.iter
    (fun (id, spec) ->
      Client.send c (Protocol.Submit { tenant; id; job = spec }))
    specs;
  let errors = ref [] in
  let results = ref [] in
  let telemetry = ref 0 in
  let expected = List.length specs in
  let rec read () =
    if List.length !results < expected then begin
      match Client.recv c with
      | None ->
          errors :=
            Printf.sprintf "%s: eof with %d/%d results" tenant
              (List.length !results) expected
            :: !errors
      | Some frame ->
          (match Client.frame_type frame with
          | "result" ->
              results := (Json.string_member "id" frame, frame) :: !results
          | "telemetry" -> incr telemetry
          | "error" ->
              errors :=
                Printf.sprintf "%s: server error: %s" tenant
                  (Json.string_member "message" frame)
                :: !errors
          | _ -> ());
          read ()
    end
  in
  read ();
  Client.close c;
  (specs, List.rev !results, !telemetry, List.rev !errors)

type tenant_outcome = {
  to_specs : (string * Protocol.spec) list;
  to_results : (string * Json.t) list;
  to_telemetry : int;
  to_errors : string list;
}

let stress_cmd =
  let tenants_arg =
    Arg.(value & opt int 10 & info [ "tenants" ] ~doc:"Concurrent tenants.")
  in
  let jobs_arg =
    Arg.(value & opt int 12 & info [ "jobs" ] ~doc:"Jobs per tenant.")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write metrics.prom, status.json, spans.json, \
             report_hawknl.json and hawknl.bundle.json here.")
  in
  let run tenants jobs out_dir workers =
    let sock =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "conair-stress-%d.sock" (Unix.getpid ()))
    in
    let address = Server.Unix_path sock in
    let child =
      Unix.create_process Sys.executable_name
        [|
          Sys.executable_name; "serve"; "--socket"; sock; "--workers";
          string_of_int workers;
        |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let errors = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let minimize_log = minimize_log_lines () in

    (* the concurrent mixed load, one thread per tenant; each thread
       drops its outcome into its slot *)
    let slots = Array.make tenants None in
    let drivers =
      List.init tenants (fun i ->
          let tenant = Printf.sprintf "t%02d" i in
          Thread.create
            (fun () ->
              try
                let specs, results, telemetry, errs =
                  drive_tenant ~address ~tenant ~tenant_ix:i ~jobs
                    ~minimize_log
                in
                slots.(i) <-
                  Some
                    {
                      to_specs = specs;
                      to_results = results;
                      to_telemetry = telemetry;
                      to_errors = errs;
                    }
              with e ->
                slots.(i) <-
                  Some
                    {
                      to_specs = [];
                      to_results = [];
                      to_telemetry = 0;
                      to_errors =
                        [
                          Printf.sprintf "%s: driver raised: %s" tenant
                            (Printexc.to_string e);
                        ];
                    })
            ())
    in
    List.iter Thread.join drivers;

    (* assertions: completion, per-tenant ordering, byte-identity *)
    let total_results = ref 0 in
    let total_telemetry = ref 0 in
    Array.iteri
      (fun i slot ->
        let tenant = Printf.sprintf "t%02d" i in
        match slot with
        | None -> fail "%s: driver thread died" tenant
        | Some o ->
            List.iter (fun e -> errors := e :: !errors) o.to_errors;
            total_results := !total_results + List.length o.to_results;
            total_telemetry := !total_telemetry + o.to_telemetry;
            if List.length o.to_results <> List.length o.to_specs then
              fail "%s: %d/%d results" tenant
                (List.length o.to_results)
                (List.length o.to_specs);
            (* strict per-tenant FIFO: result ids in submission order *)
            if List.map fst o.to_results
               <> List.filteri
                    (fun j _ -> j < List.length o.to_results)
                    (List.map fst o.to_specs)
            then fail "%s: results out of submission order" tenant;
            (* byte-identity: each report equals the in-process run *)
            if List.length o.to_results = List.length o.to_specs then
              List.iter2
                (fun (id, spec) (_, frame) ->
                  match Json.member "report" frame with
                  | None -> fail "%s/%s: result carries no report" tenant id
                  | Some got ->
                      let expect = (Job.execute spec).Job.jr_report in
                      if Json.to_string got <> Json.to_string expect then
                        fail "%s/%s: report differs from in-process run"
                          tenant id)
                o.to_specs o.to_results)
      slots;
    if !total_telemetry = 0 then
      fail "no telemetry frames were streamed at all";

    (* the designated CLI-equivalence report + observability scrapes *)
    let c = Client.connect address in
    (match
       Client.submit c ~tenant:"cli-equiv" ~id:"hawknl-seed7"
         (Protocol.Run
            {
              target =
                Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
              mode = "survival";
              exec = { Protocol.default_exec with Protocol.seed = Some 7 };
            })
     with
    | Error e -> fail "cli-equiv job: %s" e
    | Ok (frame, _telemetry) -> (
        match Json.member "report" frame with
        | None -> fail "cli-equiv job: no report"
        | Some report ->
            Jsonl.write_file
              (Filename.concat out_dir "report_hawknl.json")
              (Json.to_string_pretty report)));

    (* flight bundle: inject a failing run (HawkNL unhardened deadlocks
       under round-robin), fetch its retained post-mortem, and assert it
       is byte-identical to the in-process capture and still a working
       regeneration recipe (recovered log replays divergence-free). This
       runs before the scrapes below so the exported metrics and status
       artifacts show the bundle accounting. *)
    let failing_spec =
      Protocol.Run
        {
          target = Bench { app = "HawkNL"; variant = "buggy"; oracle = false };
          mode = "none";
          exec = Protocol.default_exec;
        }
    in
    (match
       Client.submit c ~tenant:"cli-equiv" ~id:"hawknl-deadlock" failing_spec
     with
    | Error e -> fail "bundle job: %s" e
    | Ok (frame, _telemetry) ->
        if Json.int_member "exit" frame <> 2 then
          fail "bundle job: expected the injected run to fail (exit 2)");
    Client.send c
      (Protocol.Bundle { tenant = "cli-equiv"; id = "hawknl-deadlock" });
    (match Client.recv_until c (fun j -> Client.frame_type j = "bundle") with
    | None -> fail "no bundle frame"
    | Some frame -> (
        match Json.member "bundle" frame with
        | None -> fail "bundle frame carries no bundle document"
        | Some doc -> (
            (match (Job.execute failing_spec).Job.jr_bundle with
            | None -> fail "in-process run produced no flight bundle"
            | Some expect ->
                if Json.to_string doc <> Json.to_string expect then
                  fail "served bundle differs from the in-process capture");
            match Conair.Obs.Flight.of_json doc with
            | Error e -> fail "served bundle does not decode: %s" e
            | Ok b -> (
                Conair.Obs.Flight.save b
                  (Filename.concat out_dir "hawknl.bundle.json");
                match Conair.Replay.Bundle.recover_log b with
                | Error e -> fail "bundle regeneration failed: %s" e
                | Ok log -> (
                    match Conair.replay log with
                    | Error _ -> fail "regenerated log does not replay"
                    | Ok rb -> (
                        match Conair.Replay.Driver.check log rb with
                        | Error e -> fail "regenerated log mismatch: %s" e
                        | Ok () -> ()))))));
    Client.send c Protocol.Metrics;
    (match Client.recv_until c (fun j -> Client.frame_type j = "metrics") with
    | Some frame ->
        Jsonl.write_file
          (Filename.concat out_dir "metrics.prom")
          (Json.string_member "body" frame)
    | None -> fail "no metrics frame");
    Client.send c Protocol.Status;
    (match
       Client.recv_until c (fun j -> Client.frame_type j = "serve_status")
     with
    | Some status ->
        Jsonl.write_file
          (Filename.concat out_dir "status.json")
          (Json.to_string_pretty status);
        (* cross-check the daemon's own accounting *)
        let completed =
          match Json.member "tenants" status with
          | Some (Json.List ts) ->
              List.fold_left
                (fun acc t ->
                  acc + Json.int_member "completed" t)
                0 ts
          | _ -> 0
        in
        if completed < (tenants * jobs) + 2 then
          fail "status reports %d completed jobs, expected at least %d"
            completed
            ((tenants * jobs) + 2)
    | None -> fail "no status frame");
    Client.send c (Protocol.Spans { tenant = "cli-equiv"; id = "hawknl-seed7" });
    (match Client.recv_until c (fun j -> Client.frame_type j = "spans") with
    | Some frame -> (
        match Json.member "chrome" frame with
        | Some doc ->
            Jsonl.write_file
              (Filename.concat out_dir "spans.json")
              (Json.to_string_pretty doc)
        | None -> fail "spans frame carries no chrome document")
    | None -> fail "no spans frame");
    Client.send c Protocol.Shutdown;
    ignore (Client.recv_until c (fun j -> Client.frame_type j = "bye"));
    Client.close c;
    let _, child_status = Unix.waitpid [] child in
    (match child_status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> fail "daemon exited with %d" n
    | Unix.WSIGNALED n -> fail "daemon killed by signal %d" n
    | Unix.WSTOPPED n -> fail "daemon stopped by signal %d" n);
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    Printf.printf
      "stress: %d tenants x %d jobs: %d results, %d telemetry frames\n"
      tenants jobs !total_results !total_telemetry;
    match List.rev !errors with
    | [] ->
        print_endline "all assertions passed";
        0
    | errs ->
        List.iter prerr_endline errs;
        Printf.eprintf "stress: %d assertion(s) failed\n" (List.length errs);
        1
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Spawn a daemon, drive a concurrent mixed job load against it, \
          assert ordering/completion/byte-identity, scrape the \
          observability endpoints, then shut it down.")
    Term.(const run $ tenants_arg $ jobs_arg $ out_dir_arg $ workers_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "conair_serve" ~version:"%%VERSION%%"
             ~doc:"ConAir recovery-as-a-service daemon.")
          [ serve_cmd; stress_cmd ]))
