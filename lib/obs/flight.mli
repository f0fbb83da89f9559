(** The diagnostic bundle: one self-contained JSON document dumped from
    a flight-recorder ring plus the machine's post-mortem state when a
    run fails — or on explicit request.

    A bundle carries run identification and config, the executed program
    text and its MD5, the retained decision tail (encoded as the same
    ["sched_chunk"] objects full schedule logs use — {!Jsonl.sched_chunks}),
    the preemptive switches inside the tail, per-thread status and held
    locksets, the recent sync/recovery events, recovery-episode spans and
    the run trailer. Because runs are deterministic from (program, seed,
    config, engine), the bundle doubles as a regeneration recipe:
    [Conair_replay.Bundle] re-runs it into a full schedule log verified
    against the recorded tail. All three engines produce byte-identical
    bundles on the same run, modulo the ["engine"] field itself. *)

open Conair_runtime

(** One retained sync/recovery event (see {!Flight_ring.event}). *)
type event = {
  bv_kind : string;  (** {!Flight_ring.kind_name} of the event *)
  bv_step : int;
  bv_tid : int;
  bv_arg : int;  (** site id / child tid / wait flavor; [-1] unused *)
  bv_detail : string;  (** lock/event name or failure message; may be "" *)
}

(** One recovery-episode span (from {!Stats.episode}). *)
type episode = {
  be_site : int;
  be_tid : int;
  be_start : int;
  be_end : int;
  be_retries : int;
}

type t = {
  fb_app : string;
  fb_variant : string;
  fb_oracle : bool;
  fb_mode : string;  (** "none" (unhardened), "survival" or "fix" *)
  fb_engine : string;
  fb_reason : string;  (** why the bundle was dumped *)
  fb_config : Machine.config;
  fb_program_md5 : string;
  fb_program_text : string option;
  fb_fail_blocks : (string * int) list;
  fb_tail_first : int;  (** absolute ordinal of the first retained decision *)
  fb_tail_total : int;  (** decisions in the whole run *)
  fb_tail : int array;  (** the retained suffix of the decision stream *)
  fb_tail_preemptions : int array;  (** absolute ordinals, ascending *)
  fb_steps : int;
  fb_instrs : int;
  fb_rollbacks : int;
  fb_outcome : Outcome.t;
  fb_outputs : string list;
  fb_threads : (int * string * string list) list;
      (** (tid, status, held locks) per thread, ascending tid *)
  fb_events : event list;  (** oldest first *)
  fb_episodes : episode list;  (** chronological *)
}

val version : int

val of_ring :
  app:string ->
  variant:string ->
  oracle:bool ->
  mode:string ->
  engine:string ->
  reason:string ->
  config:Machine.config ->
  program_md5:string ->
  program_text:string option ->
  fail_blocks:(string * int) list ->
  threads:(int * string * string list) list ->
  episodes:Stats.episode list ->
  steps:int ->
  instrs:int ->
  rollbacks:int ->
  outcome:Outcome.t ->
  outputs:string list ->
  Flight_ring.t ->
  t
(** Assemble a bundle from a flight ring and the run's post-mortem
    state. The ring contributes the tail, its preemptions and the
    retained events; everything else comes from the caller. *)

val to_json : t -> Json.t

val to_string : t -> string
(** The on-disk encoding: one compact JSON line plus a newline. *)

val of_json : Json.t -> (t, string) result
(** The bundle's only schema and validator. Besides field types it
    rejects an embedded program that does not hash to [program_md5], a
    tail window outside [0 <= first <= total], a tail that does not hold
    exactly [total - first] decisions, preemption ordinals that are not
    strictly ascending inside [\[first, total)], and an episode that
    ends before it starts — so no consumer of a decoded bundle has to
    re-check them. *)

val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write [to_string] atomically (temp file + rename). *)

val load : string -> (t, string) result
