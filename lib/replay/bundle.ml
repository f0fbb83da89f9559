(* Flight-recorder bundles as replay artifacts.

   [capture] runs a program with the flight hook installed and packages
   the ring plus the machine's post-mortem state as an
   [Conair_obs.Flight.t] diagnostic bundle.

   [recover_log] is the regeneration recipe: because every run is
   deterministic from (program, seed, config, engine), re-running the
   bundle's embedded program under its embedded config with the full
   recorder attached reconstructs the complete decision stream. The
   recorded tail then acts as a tamper-evident check — the re-run's
   decision suffix, preemption ordinals and trailer must all match what
   the ring retained, or the bundle is rejected. On success the caller
   holds an ordinary schedule log, and strict replay, directed replay
   and minimization apply unchanged. *)

open Conair_ir
open Conair_runtime
module Log = Schedule_log
module Flight = Conair_obs.Flight

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let bundle_of_machine ?(embed_program = true) ~engine ~reason ~config ~meta
    ~(ident : Log.ident) ~program m ring outcome =
  let stats = Engine.stats m in
  let text, md5 = Link.source (Machine.link ?meta program) in
  Flight.of_ring ~app:ident.Log.id_app ~variant:ident.Log.id_variant
    ~oracle:ident.Log.id_oracle ~mode:ident.Log.id_mode
    ~engine:(Engine.name engine) ~reason ~config
    ~program_md5:md5
    ~program_text:(if embed_program then Some text else None)
    ~fail_blocks:(Log.fail_blocks_of_meta meta)
    ~threads:(Engine.thread_summaries m)
    ~episodes:(Stats.episodes_chronological stats)
    ~steps:(Engine.steps m) ~instrs:stats.Stats.instrs
    ~rollbacks:stats.Stats.rollbacks ~outcome ~outputs:(Engine.outputs m) ring

let capture ?(engine = Engine.Block) ?config ?meta ?cap ?embed_program
    ?(reason = "requested") ~ident program =
  let config = Option.value ~default:Machine.default_config config in
  let ring = Flight_ring.create ?cap () in
  let m =
    Engine.create ~config ?meta ~hooks:(Hooks.bundle ~flight:ring ()) engine
      program
  in
  let outcome = Engine.run m in
  let bundle =
    bundle_of_machine ?embed_program ~engine ~reason ~config ~meta ~ident
      ~program m ring outcome
  in
  (m, outcome, bundle)

(* ------------------------------------------------------------------ *)
(* Regeneration                                                        *)
(* ------------------------------------------------------------------ *)

let program_of (b : Flight.t) =
  match b.Flight.fb_program_text with
  | None -> Error "bundle: no embedded program"
  | Some text -> (
      let got = Log.digest text in
      if got <> b.Flight.fb_program_md5 then
        Error
          (Printf.sprintf
             "bundle: embedded program MD5 %s does not match recorded %s" got
             b.Flight.fb_program_md5)
      else
        match Parse.program text with
        | Ok p -> Ok p
        | Error e ->
            Error
              (Format.asprintf "bundle: embedded program: %a" Parse.pp_error e))

let ident_of (b : Flight.t) : Log.ident =
  {
    Log.id_app = b.Flight.fb_app;
    id_variant = b.Flight.fb_variant;
    id_oracle = b.Flight.fb_oracle;
    id_mode = b.Flight.fb_mode;
  }

(* Compare the re-run's suffix/preemptions/trailer against the tail the
   ring retained. Any disagreement means the bundle does not describe
   this program+config (or the engines drifted) — reject it. *)
let verify_against (b : Flight.t) recorder (m : Engine.machine) outcome =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = Recorder.count recorder in
  if n <> b.Flight.fb_tail_total then
    err "bundle: re-run made %d decisions, bundle records %d" n
      b.Flight.fb_tail_total
  else
    let decisions = Recorder.decisions recorder in
    let first = b.Flight.fb_tail_first in
    let tail = b.Flight.fb_tail in
    let rec cmp i =
      if i >= Array.length tail then Ok ()
      else if decisions.(first + i) <> tail.(i) then
        err "bundle: decision %d diverges: re-run chose tid %d, tail has %d"
          (first + i)
          decisions.(first + i)
          tail.(i)
      else cmp (i + 1)
    in
    let* () = cmp 0 in
    let pre =
      Array.of_list
        (List.filter
           (fun ord -> ord >= first)
           (Array.to_list (Recorder.preemptions recorder)))
    in
    if pre <> b.Flight.fb_tail_preemptions then
      err "bundle: tail preemptions diverge (re-run %d, bundle %d)"
        (Array.length pre)
        (Array.length b.Flight.fb_tail_preemptions)
    else if Engine.steps m <> b.Flight.fb_steps then
      err "bundle: step count diverges: re-run %d, bundle %d" (Engine.steps m)
        b.Flight.fb_steps
    else
      let stats = Engine.stats m in
      if stats.Stats.instrs <> b.Flight.fb_instrs then
        err "bundle: instruction count diverges: re-run %d, bundle %d"
          stats.Stats.instrs b.Flight.fb_instrs
      else if stats.Stats.rollbacks <> b.Flight.fb_rollbacks then
        err "bundle: rollback count diverges: re-run %d, bundle %d"
          stats.Stats.rollbacks b.Flight.fb_rollbacks
      else if outcome <> b.Flight.fb_outcome then
        err "bundle: outcome diverges: re-run %s, bundle %s"
          (Outcome.to_string outcome)
          (Outcome.to_string b.Flight.fb_outcome)
      else if Engine.outputs m <> b.Flight.fb_outputs then
        err "bundle: outputs diverge"
      else Ok ()

let recover_log ?engine (b : Flight.t) : (Log.t, string) result =
  let* engine =
    match engine with
    | Some e -> Ok e
    | None -> Engine.of_string b.Flight.fb_engine
  in
  let* program = program_of b in
  let meta = Log.meta_of_fail_blocks b.Flight.fb_fail_blocks in
  let config = b.Flight.fb_config in
  let recorder = Recorder.create () in
  let m =
    Engine.create ~config ?meta ~hooks:(Recorder.hooks recorder) engine program
  in
  let outcome = Engine.run m in
  let* () = verify_against b recorder m outcome in
  let rb =
    {
      Driver.rb_outcome = outcome;
      rb_outputs = Engine.outputs m;
      rb_stats = Engine.stats m;
      rb_steps = Engine.steps m;
    }
  in
  Ok
    (Driver.log_of_run ~engine ~config ?meta ~ident:(ident_of b) ~program
       recorder rb)
