(* The one run body. Every execution the facade, the replay driver, the
   bundle regenerator and the job executor make goes through [exec]: it
   creates the engine with the caller's hooks, attaches a schedule
   recorder and a flight ring when asked, runs the program once, and
   packages what rode along. A log, a bundle and a trace of the same
   run therefore describe the execution that happened, not a second
   one assumed to match it. *)

open Conair_ir
open Conair_runtime
module Log = Schedule_log

type t = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
  log : Log.t option;
  bundle : Conair_obs.Flight.t Lazy.t option;
}

let exec ?(engine = Engine.Block) ?(config = Machine.default_config) ?meta
    ?hooks ?(ident = Log.ident "program") ?(record = false) ?(flight = false)
    (program : Program.t) : t =
  let recorder = if record then Some (Recorder.create ()) else None in
  let ring = if flight then Some (Flight_ring.create ()) else None in
  let hooks = Option.value ~default:Hooks.none hooks in
  let hooks =
    match recorder with
    | Some r ->
        {
          hooks with
          Hooks.hb_tap = Some (Recorder.tap r);
          hb_tap_run = Some (Recorder.tap_run r);
        }
    | None -> hooks
  in
  let hooks = if flight then { hooks with Hooks.hb_flight = ring } else hooks in
  let machine = Engine.create ~config ?meta ~hooks engine program in
  let outcome = Engine.run machine in
  let outputs = Engine.outputs machine and stats = Engine.stats machine in
  let steps = Engine.steps machine in
  (* the machine's own linked image (a memo hit) carries the text and
     MD5, computed once per program rather than per run *)
  let source = lazy (Link.source (Machine.link ?meta program)) in
  let log =
    Option.map
      (fun r ->
        let text, md5 = Lazy.force source in
        {
          Log.ident;
          engine = Engine.name engine;
          config;
          program_md5 = md5;
          program_text = Some text;
          fail_blocks = Log.fail_blocks_of_meta meta;
          decisions = Recorder.decisions r;
          preemptions = Recorder.preemptions r;
          steps;
          instrs = stats.Stats.instrs;
          rollbacks = stats.Stats.rollbacks;
          outcome;
          outputs;
        })
      recorder
  in
  let bundle =
    Option.map
      (fun ring ->
        lazy
          (let text, md5 = Lazy.force source in
           Conair_obs.Flight.of_ring ~app:ident.Log.id_app
             ~variant:ident.Log.id_variant ~oracle:ident.Log.id_oracle
             ~mode:ident.Log.id_mode ~engine:(Engine.name engine)
             ~reason:
               (if Outcome.is_success outcome then "requested" else "failure")
             ~config ~program_md5:md5 ~program_text:(Some text)
             ~fail_blocks:(Log.fail_blocks_of_meta meta)
             ~threads:(Engine.thread_summaries machine)
             ~episodes:(Stats.episodes_chronological stats)
             ~steps ~instrs:stats.Stats.instrs
             ~rollbacks:stats.Stats.rollbacks ~outcome ~outputs ring))
      ring
  in
  { outcome; outputs; stats; machine; log; bundle }
