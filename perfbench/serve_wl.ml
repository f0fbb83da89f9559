(* serve: the `conair_serve serve` daemon as a child process (so its
   systhreads never contend with the benchmark for one OCaml runtime
   lock), over one Unix-socket connection. Jobs come from a seeded mix:
   in every 10, 2 run (survival, streaming the full trace), 4 fuzz (20
   runs), 2 detect and 2 harden, each on an app from a seeded deck of
   the 12, from 4 tenants. The measured run drives the daemon in closed
   loop; the traced run adds the open-loop generator — a sender and a
   receiver thread — at two fixed rates and up a rate ladder, timing
   each job from when it was due. *)

open Util
module P = Conair_server.Protocol
module Client = Conair_server.Client
module Server = Conair_server.Server
module Job = Conair_server.Job
module Json = Conair.Obs.Json

let light_rate = 5.
let heavy_rate = 10.
let limit_ms = 1000.
let ladder = [ 2.; 5.; 8.; 10.; 12.; 14.; 17.; 20.; 24.; 28.; 32.; 40.; 48. ]
let tenants = [| "t0"; "t1"; "t2"; "t3" |]
let kinds = [| "run"; "run"; "fuzz"; "fuzz"; "fuzz"; "fuzz"; "detect"; "detect"; "harden"; "harden" |]
let fuzz_runs = 20

(* Jobs come in blocks of 60: the least count holding every kind in its
   proportion, every app once per kind deck and every tenant equally, so
   any two blocks carry the same work in a different order. *)
let block = 60

type ctx = {
  exe : string;
  workers : int;
  sock : string;
  mutable child : int;
  mutable client : Client.t option;
  kind_deck : string deck;
  app_decks : (string, string deck) Hashtbl.t;
  tenant_deck : string deck;
  rng : Random.State.t;
  mutable next_id : int;
  pick : int;  (** the job of each block whose report is checked *)
  mutable served : job list;  (** every finished job, newest first *)
}

and job = {
  tenant : string;
  id : string;
  kind : string;
  app : string;
  spec : P.spec;
  mutable due : float;
  mutable scale : float;  (** host-speed scale when it was sent *)
  mutable sent : float;
  mutable acked : float;
  mutable finished : float;
  mutable elapsed_ms : float;
  mutable frames : int;
  mutable status : string;
  sampled : bool;  (** its report is checked against in-process execution *)
  mutable report : string;
}

(* ---- the daemon ---------------------------------------------------- *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let start ctx =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  ctx.child <-
    Unix.create_process ctx.exe
      [| ctx.exe; "serve"; "--socket"; ctx.sock; "--workers"; string_of_int ctx.workers |]
      devnull devnull Unix.stderr;
  Unix.close devnull;
  try
    let c = Client.connect ~timeout:30. (Server.Unix_path ctx.sock) in
    ctx.client <- Some c;
    Client.send c P.Ping;
    match Client.recv c with
    | Some f when Client.frame_type f = "pong" -> ()
    | _ -> failwith "serve: daemon did not answer ping"
  with e ->
    (try Unix.kill ctx.child Sys.sigkill with Unix.Unix_error _ -> ());
    waitpid_retry ctx.child;
    ctx.child <- 0;
    raise e

let client ctx = Option.get ctx.client

(* Peak RSS of the daemon, read while it is still alive. *)
let daemon_rss ctx = peak_rss_mb ~pid:(string_of_int ctx.child) ()

let stop ctx =
  (match ctx.client with
  | Some c ->
      (try
         Client.send c P.Shutdown;
         ignore (Client.recv_until c (fun f -> Client.frame_type f = "bye"))
       with Unix.Unix_error _ | Sys_error _ -> ());
      Client.close c;
      ctx.client <- None
  | None -> ());
  if ctx.child > 0 then begin
    waitpid_retry ctx.child;
    ctx.child <- 0
  end

(* Spawns the daemon and waits until it answers; [run.py] passes the
   built daemon and the directory for its socket. *)
let daemons = ref 0

let setup ~seed ~exe ~run_dir =
  let rng_for = rng ~seed in
  incr daemons;
  let ctx =
    {
      exe;
      workers = Domain.recommended_domain_count ();
      sock = Filename.concat run_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !daemons);
      child = 0;
      client = None;
      kind_deck = deck (rng_for "serve.kinds") kinds;
      app_decks = Hashtbl.create 4;
      tenant_deck = deck (rng_for "serve.tenants") tenants;
      rng = rng_for "serve.arrivals";
      next_id = 0;
      pick = Random.State.int (rng_for "serve.sample") block;
      served = [];
    }
  in
  Array.iter
    (fun k ->
      if not (Hashtbl.mem ctx.app_decks k) then
        Hashtbl.replace ctx.app_decks k (deck (rng_for ("serve.apps." ^ k)) (Array.of_list Apps.names)))
    kinds;
  start ctx;
  ctx

(* ---- the job mix ----------------------------------------------------- *)

let spec_of ~base_seed kind app =
  let target = P.Bench { app; variant = "buggy"; oracle = false } in
  match kind with
  | "run" -> P.Run { target; mode = "survival"; exec = P.default_exec }
  | "fuzz" ->
      P.Fuzz { target; runs = fuzz_runs; base_seed; exec = P.default_exec }
  | "detect" -> P.Detect { target; original = false; exec = P.default_exec }
  | _ -> P.Harden { target; mode = "survival" }

let new_job ?tenant ctx =
  let sampled = ctx.next_id mod block = ctx.pick in
  let kind = draw ctx.kind_deck in
  let app = draw (Hashtbl.find ctx.app_decks kind) in
  ctx.next_id <- ctx.next_id + 1;
  {
    tenant = (match tenant with Some t -> t | None -> draw ctx.tenant_deck);
    id = Printf.sprintf "j%06d" ctx.next_id;
    kind;
    app;
    spec = spec_of ~base_seed:(Random.State.int ctx.rng 1_000_000) kind app;
    due = nan;
    scale = nan;
    sent = nan;
    acked = nan;
    finished = nan;
    elapsed_ms = nan;
    frames = 0;
    status = "";
    sampled;
    report = "";
  }

(* ---- the generator --------------------------------------------------- *)

let str k f = match Json.member k f with Some (Json.String s) -> s | _ -> ""

let send ctx j =
  j.sent <- now ();
  Client.send (client ctx) (P.Submit { tenant = j.tenant; id = j.id; job = j.spec })

(* Read frames until [finished ()] holds, filing each under its job.
   [on_result] runs on every result frame (the closed loop sends its
   next job from there). *)
let receive ctx table ~finished ~on_result =
  let errors = ref 0 in
  let order = Hashtbl.create 4 in
  while not (finished ()) do
    match Client.recv (client ctx) with
    | None -> failwith "serve: daemon closed the connection"
    | Some f -> (
        let t = now () in
        match Hashtbl.find_opt table (str "id" f) with
        | None -> incr errors
        | Some j -> (
            match Client.frame_type f with
            | "ack" -> j.acked <- t
            | "telemetry" -> j.frames <- j.frames + 1
            | "result" ->
                j.finished <- t;
                j.status <- str "status" f;
                (j.elapsed_ms <-
                   match Json.member "elapsed_ms" f with
                   | Some (Json.Float x) -> x
                   | Some (Json.Int x) -> float_of_int x
                   | _ -> nan);
                if j.sampled then
                  j.report <- Option.fold ~none:"" ~some:Json.to_string (Json.member "report" f);
                Hashtbl.replace order j.tenant (j.id :: Option.value ~default:[] (Hashtbl.find_opt order j.tenant));
                on_result j
            | _ -> incr errors))
  done;
  check "serve: no error frames" (!errors = 0);
  order

(* Per tenant, results arrive in submission order. *)
let check_order jobs order =
  Array.iter
    (fun tenant ->
      let submitted =
        List.filter_map (fun j -> if j.tenant = tenant then Some j.id else None) jobs
      in
      let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt order tenant)) in
      check ("serve: per-tenant result order for " ^ tenant) (got = submitted))
    tenants

let check_ok jobs =
  List.iter (fun j -> check ("serve: job " ^ j.id ^ " (" ^ j.kind ^ ") ok") (j.status = "ok")) jobs

type phase = {
  jobs : job list;
  wall : float;  (** first due to last result *)
  cpu_share : float;  (** generator CPU seconds per wall second *)
}

let latencies p = List.map (fun j -> (j.finished -. j.due) *. 1000.) p.jobs
let lateness p = List.map (fun j -> (j.sent -. j.due) *. 1000.) p.jobs

(* Open loop: [n] jobs due at the given rate, each at a seeded uniform
   offset within its slot of the schedule; the sender thread sends each
   when due, whatever the backlog. *)
let open_loop ctx ~rate ~n =
  let t0 = now () +. 0.05 in
  let jobs =
    List.init n (fun i ->
        let j = new_job ctx in
        j.due <- t0 +. ((float_of_int i +. Random.State.float ctx.rng 1.) /. rate);
        j)
  in
  let table = Hashtbl.create 64 in
  List.iter (fun j -> Hashtbl.replace table j.id j) jobs;
  ctx.served <- List.rev_append jobs ctx.served;
  let results = ref 0 in
  let cpu0 = cpu () in
  let sender =
    Thread.create
      (fun () ->
        List.iter
          (fun j ->
            let wait = j.due -. now () in
            if wait > 0. then Thread.delay wait;
            send ctx j)
          jobs)
      ()
  in
  let order = receive ctx table ~finished:(fun () -> !results = n) ~on_result:(fun _ -> incr results) in
  Thread.join sender;
  let wall = now () -. t0 in
  let cpu_share = (cpu () -. cpu0) /. wall in
  check_order jobs order;
  check_ok jobs;
  { jobs; wall; cpu_share }

(* Closed loop over one block: [in_flight] jobs outstanding (1: each job
   alone in the daemon; one per tenant: the daemon saturated), the next
   sent as soon as a result arrives. Returns the jobs and the block's
   wall time in seconds at reference speed (the mean of the scales
   before and after it). *)
let closed_loop ctx ~in_flight =
  let table = Hashtbl.create 64 in
  let all = ref [] and submitted = ref 0 and completed = ref 0 in
  let submit ?tenant () =
    let j = new_job ?tenant ctx in
    (* alone in the daemon: calibrate while it is idle *)
    if in_flight = 1 then fresh_scale ();
    j.scale <- !scale;
    j.due <- now ();
    Hashtbl.replace table j.id j;
    all := j :: !all;
    incr submitted;
    send ctx j
  in
  if in_flight > 1 then calibrate ();
  let before = !scale in
  let t0 = now () in
  if in_flight = 1 then submit () else Array.iter (fun tenant -> submit ~tenant ()) tenants;
  let order =
    receive ctx table
      ~finished:(fun () -> !completed = block)
      ~on_result:(fun j ->
        incr completed;
        if !submitted < block then
          if in_flight = 1 then submit () else submit ~tenant:j.tenant ())
  in
  let wall = now () -. t0 in
  if in_flight > 1 then calibrate ();
  let jobs = List.rev !all in
  ctx.served <- List.rev_append jobs ctx.served;
  check_order jobs order;
  check_ok jobs;
  (jobs, wall *. (before +. !scale) /. 2.)

(* One seeded job per block: its served report must be byte-identical
   to the same job executed in-process. *)
let check_sample ctx =
  List.iter
    (fun j ->
      if j.sampled && j.report <> "" then begin
        check
          ("serve: report of " ^ j.id ^ " (" ^ j.kind ^ ") byte-identical to in-process Job.execute")
          (Json.to_string (Job.execute j.spec).Job.jr_report = j.report);
        j.report <- ""
      end)
    ctx.served

(* The measured run alternates two closed-loop blocks, a fixed number
   of times for its length (at least twice each). One-at-a-time round
   trips give the latency percentiles: over the block's 60 jobs, each at
   its median over the blocks — alone in the daemon, a job's latency
   does not depend on what it happens to overlap. Saturated blocks give
   capacity, at the median block. The open-loop rates, whose latencies
   hinge on such coincidences, are measured in the traced run. *)
let measure ctx ~seconds =
  let rt = samples () and caps = ref [] in
  (* the daemon's memory grows with the jobs it has served, so the run
     serves a fixed number of blocks for its length, not as many as fit *)
  let pairs = max 2 (int_of_float (Float.round (seconds /. 5.))) in
  for _ = 1 to pairs do
    resetup ();
    let jobs, _ = closed_loop ctx ~in_flight:1 in
    let seen = Hashtbl.create 64 in
    List.iter
      (fun j ->
        let k = j.kind ^ "/" ^ j.app in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k n;
        add rt (Printf.sprintf "%s/%d" k n) ((j.finished -. j.due) *. j.scale *. 1000.))
      jobs;
    let _, wall = closed_loop ctx ~in_flight:(Array.length tenants) in
    caps := (float_of_int block /. wall) :: !caps;
    mark_rss ~extra:(Option.value ~default:nan (daemon_rss ctx)) ()
  done;
  let lat = unit_medians rt in
  info "serve: %d blocks each way; capacity %s jobs/s" (List.length !caps)
    (String.concat ", " (List.map (Printf.sprintf "%.2f") !caps));
  check_sample ctx;
  [
    metric "throughput_per_s" "1/s" (median !caps);
    metric "latency_p50_ms" "ms" (quantile 0.5 lat);
    metric "latency_p90_ms" "ms" (quantile 0.9 lat);
  ]

(* ---- the traced run ------------------------------------------------ *)

(* A rung meets the limit when its p90 latency does and its backlog
   drains within the limit after the last arrival. *)
let meets p =
  let last_due = List.fold_left (fun a j -> Float.max a j.due) neg_infinity p.jobs in
  let last_done = List.fold_left (fun a j -> Float.max a j.finished) neg_infinity p.jobs in
  quantile 0.9 (latencies p) <= limit_ms && (last_done -. last_due) *. 1000. <= limit_ms

(* One span per served job, from due to result, with its admission
   (send to ack) and its execution on the daemon (the result frame's
   elapsed_ms, ending at the result) as children: the request's self
   time is its wait in queue and transport. *)
let record_spans p =
  List.iter
    (fun j ->
      let parent = Tracer.record "serve.request" ~start:j.due ~stop:j.finished in
      ignore (Tracer.record ~parent "serve.admit" ~start:j.sent ~stop:j.acked);
      ignore
        (Tracer.record ~parent "serve.server_exec"
           ~start:(j.finished -. (j.elapsed_ms /. 1000.))
           ~stop:j.finished))
    p.jobs

(* Highest ladder rung that meets the limit, walking up from the heavy
   rate (or down, when heavy already misses it). A rung is about 3 s of
   arrivals in whole blocks, long enough for a backlog to show. *)
let max_rate ctx ~heavy_ok =
  let up = List.filter (fun r -> r > heavy_rate) ladder in
  let down = List.rev (List.filter (fun r -> r < heavy_rate) ladder) in
  let rec walk best = function
    | [] -> best
    | r :: rest ->
        let n = block * int_of_float (Float.ceil (r *. 3. /. float_of_int block)) in
        let p = Tracer.span (Printf.sprintf "serve.open_loop.%g" r) (fun () -> open_loop ctx ~rate:r ~n) in
        info "ladder %.1f jobs/s: p90 %.0f ms" r (quantile 0.9 (latencies p));
        if meets p then if heavy_ok then walk r rest else r
        else if heavy_ok then best
        else walk best rest
  in
  if heavy_ok then walk heavy_rate up else walk 0. down

(* In-process Job.execute per kind over every app: the execution cost
   without the daemon, and the frames and bytes a served copy carries,
   encoded as the daemon encodes them and decoded as Client.recv
   decodes them. *)
let in_process () =
  let exec = Hashtbl.create 4 and bytes = ref [] and run_frames = ref [] in
  let decode_s = ref 0. and decoded = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun app ->
          let spec = spec_of ~base_seed:7 kind app in
          let tel = ref [] in
          let o, dt =
            time (fun () ->
                Tracer.span ("serve.job_execute." ^ kind) (fun () ->
                    Job.execute ~telemetry:(fun l -> tel := l :: !tel) spec))
          in
          Hashtbl.replace exec kind ((dt *. 1000.) :: Option.value ~default:[] (Hashtbl.find_opt exec kind));
          let tenant = "t0" and id = "j000001" in
          let lines =
            Json.to_string (P.ack ~tenant ~id ~queue_depth:1)
            :: List.rev_map (fun l -> Json.to_string (P.telemetry ~tenant ~id l)) !tel
            @ [
                Json.to_string
                  (P.result ~tenant ~id ~status:o.Job.jr_status ~exit:o.Job.jr_exit
                     ~elapsed_ms:(Float.round (dt *. 1000.)) o.Job.jr_report);
              ]
          in
          bytes := float_of_int (List.fold_left (fun a l -> a + String.length l + 1) 0 lines) :: !bytes;
          if kind = "run" then begin
            run_frames := float_of_int (List.length lines) :: !run_frames;
            let (), dt = time (fun () -> List.iter (fun l -> ignore (Json.of_string l)) lines) in
            decode_s := !decode_s +. dt;
            decoded := !decoded + List.length lines
          end)
        Apps.names)
    [ "run"; "fuzz"; "detect"; "harden" ];
  ( (fun kind -> median (Hashtbl.find exec kind)),
    median !run_frames,
    mean !bytes,
    !decode_s *. 1e6 /. float_of_int !decoded )

(* The traced serve section: one block at each rate, the rate ladder,
   and the in-process costs. *)
let traced ctx =
  let phase rate =
    let p = Tracer.span (Printf.sprintf "serve.open_loop.%g" rate) (fun () -> open_loop ctx ~rate ~n:block) in
    record_spans p;
    p
  in
  let light = phase light_rate in
  let heavy = phase heavy_rate in
  let rate = max_rate ctx ~heavy_ok:(meets heavy) in
  let exec_ms, frames, bytes, decode_us = in_process () in
  let served = ctx.served in
  let by_kind k = List.filter_map (fun j -> if j.kind = k then Some j.elapsed_ms else None) served in
  let both = light.jobs @ heavy.jobs in
  let admit = List.map (fun j -> (j.acked -. j.sent) *. 1000.) both in
  let outside = List.map (fun j -> ((j.finished -. j.sent) *. 1000.) -. j.elapsed_ms) both in
  check_sample ctx;
  List.concat_map
    (fun k ->
      [
        metric ("serve.job_exec_ms." ^ k) "ms" (exec_ms k);
        metric ("serve.server_elapsed_ms." ^ k) "ms" (median (by_kind k));
      ])
    [ "run"; "fuzz"; "detect"; "harden" ]
  @ [
      metric "serve.admit_ms_p90" "ms" (quantile 0.9 admit);
      metric "serve.outside_exec_ms_p90" "ms" (quantile 0.9 outside);
      metric "serve.frames_per_run_job" "count" frames;
      metric "serve.bytes_per_job" "bytes" bytes;
      metric "serve.client_decode_us_per_frame" "us" decode_us;
      metric "serve.light.gen_late_ms_p90" "ms" (quantile 0.9 (lateness light));
      metric "serve.heavy.gen_late_ms_p90" "ms" (quantile 0.9 (lateness heavy));
      metric "serve.light.gen_cpu_share" "x" light.cpu_share;
      metric "serve.heavy.gen_cpu_share" "x" heavy.cpu_share;
      metric "serve.light.latency_p50_ms" "ms" (quantile 0.5 (latencies light));
      metric "serve.light.latency_p90_ms" "ms" (quantile 0.9 (latencies light));
      metric "serve.heavy.latency_p50_ms" "ms" (quantile 0.5 (latencies heavy));
      metric "serve.heavy.latency_p90_ms" "ms" (quantile 0.9 (latencies heavy));
      metric "serve.max_rate_jobs_per_s" "1/s" rate;
    ]

(* The tracer's cost on a served phase: its spans are recorded after
   the fact from timestamps the generator takes anyway. *)
let trace_overhead ctx =
  let p = open_loop ctx ~rate:light_rate ~n:block in
  let enabled = !Tracer.enabled in
  Tracer.enabled := true;
  let (), dt = time (fun () -> record_spans p) in
  Tracer.enabled := enabled;
  (p.wall +. dt) /. p.wall
