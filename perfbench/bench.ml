(* The repository benchmark driver. run.py builds this program and the
   daemon, then runs

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --serve-exe PATH --out-dir DIR

   With --trace 0 it sets the workload up several times (setup_s is the
   median), measures it for S seconds with tracing off, checks every
   output, and prints the end-to-end metrics. With --trace 1 it runs the
   traced sweep instead: every layer's section under the span recorder
   (so every per-layer metric is printed whatever the workload), plus the
   tracer's own overhead on W, and writes the Chrome trace to DIR. The
   last line of stdout is the result object. *)

open Util

let workloads = [ "pipeline"; "campaign"; "repair"; "serve" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  serve_exe : string;
  out_dir : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload (pipeline|campaign|repair|serve) --seed N \
     --seconds S --trace 0|1 --serve-exe PATH --out-dir DIR";
  exit 2

let parse_args () =
  let a = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace a (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt a k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  {
    workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace;
    serve_exe = get "serve-exe";
    out_dir = get "out-dir";
  }

(* The context the run measures is set up once before measuring (the
   heap is then compacted, so peak RSS starts from the same state in
   every run); the workload sets up again between its units of work,
   see [Util.resetup], and setup_s is the median of all of them. *)
let timed_setup ~setup ~discard =
  calibrate ();
  let ctx, dt = time setup in
  setup_times := [ ref_ms dt /. 1000. ];
  (setup_again := fun () -> discard (setup ()));
  Gc.compact ();
  last_setup := now ();
  ctx

let run_dir args =
  let d = Filename.concat args.out_dir "run" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ args.out_dir; d ];
  d

let serve_setup args () =
  Serve_wl.setup ~seed:args.seed ~exe:args.serve_exe ~run_dir:(run_dir args)

(* ---- untraced: the end-to-end metrics ----------------------------- *)

let end_to_end args =
  let seed = args.seed and seconds = args.seconds in
  let measure setup ~discard run =
    let ctx = timed_setup ~setup ~discard in
    let ms = run ctx in
    info "host speed: calibration kernel median %.2f ms over %d runs (reference %.1f ms)"
      (median !kernel_samples) (List.length !kernel_samples) reference_kernel_ms;
    metric "setup_s" "s" (median !setup_times)
    :: metric "peak_rss_mb" "MB" (Option.value ~default:nan !rss_mark)
    :: ms
  in
  let batch setup run = measure setup ~discard:ignore (fun ctx -> run ctx ~seconds) in
  match args.workload with
  | "pipeline" -> batch (fun () -> Pipeline_wl.setup ~seed) Pipeline_wl.measure
  | "campaign" -> batch (fun () -> Campaign_wl.setup ~seed) Campaign_wl.measure
  | "repair" -> batch (fun () -> Repair_wl.setup ~seed) Repair_wl.measure
  | _ ->
      measure (serve_setup args) ~discard:Serve_wl.stop (fun ctx ->
          Fun.protect ~finally:(fun () -> Serve_wl.stop ctx) (fun () ->
              Serve_wl.measure ctx ~seconds))

(* ---- traced: the per-layer metrics -------------------------------- *)

(* Wall time of the same work with the tracer off and on, alternating,
   [pairs] times: median on / median off. *)
let overhead ~pairs work =
  let off = ref [] and on = ref [] in
  for i = 1 to pairs do
    let sample enabled acc =
      Tracer.enabled := enabled;
      let (), dt = time work in
      acc := dt :: !acc
    in
    if i mod 2 = 1 then (sample false off; sample true on) else (sample true on; sample false off)
  done;
  Tracer.enabled := false;
  median !on /. median !off

let traced args =
  let seed = args.seed in
  let pipeline = Pipeline_wl.setup ~seed and campaign = Campaign_wl.setup ~seed in
  let repair = Repair_wl.setup ~seed in
  let serve = serve_setup args () in
  Fun.protect ~finally:(fun () -> Serve_wl.stop serve) @@ fun () ->
  let overhead_x =
    match args.workload with
    | "pipeline" -> Some (overhead ~pairs:6 (fun () -> Pipeline_wl.pass pipeline (samples ())))
    | "campaign" ->
        Some
          (overhead ~pairs:2 (fun () ->
               ignore (Campaign_wl.pass campaign ~seeds:(samples ()) ~runs:(samples ()))))
    | "repair" -> None (* the traced re-drive against the untraced pass below *)
    | _ -> Some (Serve_wl.trace_overhead serve)
  in
  (* Fix.Pipeline.run, untraced: the wall time of the fix pipeline, and
     the reports the traced re-drive must reproduce *)
  let (), repair_wall = time (fun () -> Repair_wl.pass repair (samples ())) in
  Tracer.reset ();
  Tracer.enabled := true;
  let ms =
    Tracer.span "section.pipeline" (fun () -> Pipeline_wl.traced pipeline)
    @ Tracer.span "section.campaign" (fun () -> Campaign_wl.traced campaign)
    @ Tracer.span "section.repair" (fun () -> Repair_wl.traced repair)
    @ Tracer.span "section.layers" (fun () -> Layers.traced ~seed pipeline campaign)
    @ Tracer.span "section.serve" (fun () -> Serve_wl.traced serve)
  in
  Tracer.enabled := false;
  let file =
    Filename.concat args.out_dir (Printf.sprintf "trace-%s-%d.json" args.workload seed)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Tracer.to_chrome ()));
      output_char oc '\n');
  info "wrote %s (%d spans)" file (List.length (Tracer.closed ()));
  info "%-34s %8s %12s" "span" "count" "self ms";
  List.iter
    (fun (name, n, self) -> info "%-34s %8d %12.1f" name n (self *. 1000.))
    (Tracer.self_table ());
  calibrate ();
  let overhead_x =
    match overhead_x with
    | Some x -> x
    | None -> sum (Tracer.durations_ms "section.repair") /. 1000. /. repair_wall
  in
  ms
  @ [
      metric "host.kernel_ms" "ms" (median !kernel_samples);
      metric "repair.wall_s" "s" repair_wall;
      metric "trace.overhead_x" "x" overhead_x;
    ]

let () =
  let args = parse_args () in
  let ms = if args.trace then traced args else end_to_end args in
  print_endline (result_line ms);
  exit (if checks.failed = 0 then 0 else 1)
