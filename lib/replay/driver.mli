(** Record a run into a {!Schedule_log}, replay a log on any engine with
    divergence detection, and verify a replay against the recorded
    trailer. *)

open Conair_ir
open Conair_runtime

(** = {!Conair_runtime.Engine.t}: any engine records, any engine replays,
    in any combination — schedule logs are engine-interchangeable. Every
    entry point below defaults to [Block], whose compiled windows
    account the recorder tap and the replay feeds in bulk. *)
type engine = Engine.t = Ref  (** [Ref_machine] *)
  | Fast  (** [Machine] *)
  | Block  (** [Block_machine] *)

val engine_name : engine -> string
val engine_of_name : string -> (engine, string) result

(** What both engines report about a finished execution. *)
type result_bundle = {
  rb_outcome : Outcome.t;
  rb_outputs : string list;
  rb_stats : Stats.t;
  rb_steps : int;
}

(** A structured divergence: exactly where the replayed execution
    disagreed with the recording. *)
type divergence = {
  dv_decision : int;  (** ordinal of the disagreeing decision *)
  dv_step : int;  (** machine virtual time when it was detected *)
  dv_expected : int option;  (** recorded tid; [None] = log exhausted *)
  dv_actual : int list;  (** the eligible set the replay offered *)
  dv_reason : string;
}

type error =
  | Program_mismatch of { expected_md5 : string; got_md5 : string }
      (** the supplied program is not the recorded one *)
  | No_program of string  (** no embedded program, or it fails to parse *)
  | Diverged of divergence

val error_to_string : error -> string

val record :
  ?engine:engine ->
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?embed_program:bool ->
  ident:Schedule_log.ident ->
  Program.t ->
  result_bundle * Schedule_log.t
(** Run [program] with the recorder tap installed and package the
    decision stream as a self-contained schedule log. [embed_program]
    (default [true]) controls whether the program text rides in the log;
    [meta] is the recovery metadata for hardened programs and is
    serialized into the log's fail-block table. *)

val replay :
  ?engine:engine ->
  ?program:Program.t ->
  ?meta:Machine.meta ->
  Schedule_log.t ->
  (result_bundle, error) result
(** Re-execute a recorded schedule. The program defaults to the log's
    embedded text; a supplied program is verified against the recorded
    MD5 first. The replaying engine is independent of the recording one —
    cross-engine replay is part of the differential guarantee. *)

val replay_directed :
  ?engine:engine ->
  ?meta:Machine.meta ->
  program:Program.t ->
  Schedule_log.t ->
  result_bundle
(** Re-execute a log's schedule against a *different* program — the fix
    synthesizer's replay gate. The recording is recast as context-switch
    directives ({!Feed.directives_of}) and driven through the
    divergence-safe directed feed: the recorded failure's preemptions are
    forced at the same per-thread decision counts, and wherever the
    patched program can no longer follow (a thread now blocks on an
    inserted lock or wait), control falls to the next eligible thread in
    round-robin order. No MD5 check, never raises [Feed.Diverged]. *)

val check : Schedule_log.t -> result_bundle -> (unit, string) result
(** Compare a replay's results against the log's recorded trailer
    (outcome, outputs, steps, instruction and rollback counts). *)

(** {1 Shared resolution helpers} (used by the inspector and minimizer) *)

val resolve_program :
  ?program:Program.t -> Schedule_log.t -> (Program.t, error) result
(** The supplied program verified against the recorded MD5, or the log's
    embedded text parsed. *)

val resolve_meta : ?meta:Machine.meta -> Schedule_log.t -> Machine.meta option
