(* Engine and hook cost, sampled in one run: every sample of every
   configuration is taken in the same randomly interleaved sequence, and
   each figure is a ratio of sums over the same (program, schedule)
   set — never against a constant recorded elsewhere.

   Bare runs use the pipeline programs, hardened; hooked runs and hook
   ratios use the campaign's hardened apps under random schedules. All
   engines must agree on every observable of every sample. *)

open Util
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Hooks = Conair.Runtime.Hooks
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome
module Flight_ring = Conair.Runtime.Flight_ring
module Coverage = Conair.Obs.Coverage
module Detect = Conair.Race.Detect
module Recorder = Conair.Replay.Recorder

type sample = { key : string; mutable secs : float; mutable steps : int }

let samples : (string, sample) Hashtbl.t = Hashtbl.create 16

let note key secs steps =
  let s =
    match Hashtbl.find_opt samples key with
    | Some s -> s
    | None ->
        let s = { key; secs = 0.; steps = 0 } in
        Hashtbl.replace samples key s;
        s
  in
  s.secs <- s.secs +. secs;
  s.steps <- s.steps + steps

let secs key = (Hashtbl.find samples key).secs
let steps_per_s key = let s = Hashtbl.find samples key in float_of_int s.steps /. s.secs

(* A run's observable result, which every engine and hook must leave
   unchanged. *)
let observable m outcome =
  (Outcome.to_string outcome, Engine.outputs m, Engine.steps m)

(* [go] builds the run's hooks and returns the timed part: machine
   creation (with the block engine's compile) and the run. *)
type task = { key : string; group : string; go : unit -> unit -> Engine.machine * Outcome.t }

let run_task results t =
  let (m, outcome), dt = time (t.go ()) in
  note t.key dt (Engine.steps m);
  let obs = observable m outcome in
  match Hashtbl.find_opt results t.group with
  | None -> Hashtbl.replace results t.group obs
  | Some first -> check ("layers: same run under " ^ t.key ^ " for " ^ t.group) (obs = first)

let create ?hooks engine ~config ~meta program =
  let m = Engine.create ~config ~meta ?hooks engine program in
  (m, Engine.run m)

(* Bare: every pipeline program, hardened, on all three engines. *)
let bare_tasks (progs : Pipeline_wl.prog array) =
  Array.to_list progs
  |> List.concat_map (fun (pr : Pipeline_wl.prog) ->
         let h = Conair.harden_exn (Pipeline_wl.parse pr.Pipeline_wl.text) pr.Pipeline_wl.mode in
         let meta = Machine.meta_of_harden h.Conair.hardened in
         let program = h.Conair.hardened.Conair.Transform.Harden.program in
         List.map
           (fun e ->
             {
               key = Printf.sprintf "bare.%s" (Engine.name e);
               group = pr.Pipeline_wl.label;
               go = (fun () () -> create e ~config:Machine.default_config ~meta program);
             })
           Engine.all)

(* Hooked: each campaign app under a random schedule, plain, with the
   campaign's hook pair (schedule recorder + coverage collector) and with
   each hook alone, on the fast and block engines. *)
let hooked_tasks (apps : Campaign_wl.app array) ~seed =
  let r = rng ~seed "layers.schedules" in
  Array.to_list apps
  |> List.concat_map (fun (a : Campaign_wl.app) ->
         let sched = Random.State.bits r in
         let config = { Campaign_wl.config with Machine.policy = Sched.Random sched } in
         let h = a.Campaign_wl.hardened in
         let meta = Machine.meta_of_harden h.Conair.hardened in
         let program = h.Conair.hardened.Conair.Transform.Harden.program in
         let group = Printf.sprintf "%s/%d" a.Campaign_wl.name sched in
         let hooks_of = function
           | "plain" -> None
           | "record" -> Some (Hooks.bundle ~tap:(Recorder.tap (Recorder.create ())) ())
           | "campaign" ->
               Some
                 (Hooks.bundle
                    ~tap:(Recorder.tap (Recorder.create ()))
                    ~race:(Coverage.probe (Coverage.collector ()))
                    ())
           | "coverage" -> Some (Hooks.bundle ~race:(Coverage.probe (Coverage.collector ())) ())
           | "detect" -> Some (Hooks.bundle ~race:(Detect.probe (Detect.create ())) ())
           | "flight" -> Some (Hooks.bundle ~flight:(Flight_ring.create ()) ())
           | _ -> invalid_arg "hook"
         in
         List.concat_map
           (fun e ->
             List.map
               (fun hook ->
                 {
                   key = Printf.sprintf "%s.%s" hook (Engine.name e);
                   group;
                   go =
                     (fun () ->
                       let hooks = hooks_of hook in
                       fun () -> create ?hooks e ~config ~meta program);
                 })
               [ "plain"; "campaign"; "record"; "coverage"; "detect"; "flight" ])
           [ Engine.Fast; Engine.Block ])

let rounds = 5

let traced ~seed (pipeline : Pipeline_wl.ctx) (campaign : Campaign_wl.ctx) =
  Hashtbl.reset samples;
  let tasks = Array.of_list (bare_tasks pipeline.Pipeline_wl.progs @ hooked_tasks campaign.Campaign_wl.apps ~seed) in
  let order = rng ~seed "layers.order" in
  let results = Hashtbl.create 64 in
  Tracer.span "layers.sample" (fun () ->
      for _ = 1 to rounds do
        Array.iter (run_task results) (shuffle order tasks)
      done);
  let d = Apps.default_engine () in
  let dn = Engine.name d and hooked e = "campaign." ^ Engine.name e in
  let x hook = secs (Printf.sprintf "%s.%s" hook dn) /. secs ("plain." ^ dn) in
  [
    metric "runtime.ref.bare_steps_per_s" "1/s" (steps_per_s "bare.ref");
    metric "runtime.fast.bare_steps_per_s" "1/s" (steps_per_s "bare.fast");
    metric "runtime.block.bare_steps_per_s" "1/s" (steps_per_s "bare.block");
    metric "runtime.fast.hooked_steps_per_s" "1/s" (steps_per_s (hooked Engine.Fast));
    metric "runtime.block.hooked_steps_per_s" "1/s" (steps_per_s (hooked Engine.Block));
    metric "runtime.block_vs_fast.bare" "x" (steps_per_s "bare.block" /. steps_per_s "bare.fast");
    metric "runtime.block_vs_fast.hooked" "x"
      (steps_per_s (hooked Engine.Block) /. steps_per_s (hooked Engine.Fast));
    metric "hooks.record_x" "x" (x "record");
    metric "hooks.coverage_x" "x" (x "coverage");
    metric "hooks.detect_x" "x" (x "detect");
    metric "hooks.flight_x" "x" (x "flight");
    metric "hooks.flight_x.block" "x" (secs "flight.block" /. secs "plain.block");
  ]
