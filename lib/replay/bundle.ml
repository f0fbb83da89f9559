(* Flight-recorder bundles as replay artifacts.

   A bundle is captured by [Runner.exec ~flight:true], on the run it
   describes. [recover_log] is the regeneration recipe: because every
   run is deterministic from (program, seed, config, engine), re-running
   the bundle's embedded program under its embedded config with the
   full recorder attached reconstructs the complete decision stream. The
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

(* Compare the re-run's log — its suffix, preemptions and trailer —
   against the tail the ring retained. Any disagreement means the bundle
   does not describe this program+config (or the engines drifted) —
   reject it. *)
let verify_against (b : Flight.t) (log : Log.t) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let decisions = log.Log.decisions in
  let n = Array.length decisions in
  if n <> b.Flight.fb_tail_total then
    err "bundle: re-run made %d decisions, bundle records %d" n
      b.Flight.fb_tail_total
  else
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
           (Array.to_list log.Log.preemptions))
    in
    if pre <> b.Flight.fb_tail_preemptions then
      err "bundle: tail preemptions diverge (re-run %d, bundle %d)"
        (Array.length pre)
        (Array.length b.Flight.fb_tail_preemptions)
    else if log.Log.steps <> b.Flight.fb_steps then
      err "bundle: step count diverges: re-run %d, bundle %d" log.Log.steps
        b.Flight.fb_steps
    else if log.Log.instrs <> b.Flight.fb_instrs then
      err "bundle: instruction count diverges: re-run %d, bundle %d"
        log.Log.instrs b.Flight.fb_instrs
    else if log.Log.rollbacks <> b.Flight.fb_rollbacks then
      err "bundle: rollback count diverges: re-run %d, bundle %d"
        log.Log.rollbacks b.Flight.fb_rollbacks
    else if log.Log.outcome <> b.Flight.fb_outcome then
      err "bundle: outcome diverges: re-run %s, bundle %s"
        (Outcome.to_string log.Log.outcome)
        (Outcome.to_string b.Flight.fb_outcome)
    else if log.Log.outputs <> b.Flight.fb_outputs then
      err "bundle: outputs diverge"
    else Ok ()

let recover_log ?engine (b : Flight.t) : (Log.t, string) result =
  let* engine =
    match engine with
    | Some e -> Ok e
    | None -> Engine.of_string b.Flight.fb_engine
  in
  let* program = program_of b in
  let r =
    Runner.exec ~engine ~config:b.Flight.fb_config
      ?meta:(Log.meta_of_fail_blocks b.Flight.fb_fail_blocks)
      ~ident:(ident_of b) ~record:true program
  in
  let log = Option.get r.Runner.log in
  let* () = verify_against b log in
  Ok log
