(** The schedule log: one recorded run's complete scheduling-decision
    stream plus enough metadata to re-execute it from the file alone.

    Serialized as JSONL — a ["sched_meta"] header (identification,
    execution config, embedded program text and MD5, fail-block table for
    hardened programs), ["sched_chunk"] lines carrying the chosen-thread
    stream, and a ["sched_end"] trailer with the decision/preemption
    counts and the recorded outcome, outputs and statistics used to
    verify a replay. See [docs/REPLAY.md] for the format. *)

open Conair_ir
open Conair_runtime

(** Identification of the recorded run, mirroring the registry
    vocabulary of the bugbench catalog. *)
type ident = {
  id_app : string;
  id_variant : string;
  id_oracle : bool;
  id_mode : string;  (** "none" (unhardened), "survival" or "fix" *)
}

val ident : ?variant:string -> ?oracle:bool -> ?mode:string -> string -> ident
(** Defaults: variant ["buggy"], oracle [false], mode ["none"]. *)

type t = {
  ident : ident;
  engine : string;  (** which engine recorded it ("fast" / "ref") *)
  config : Machine.config;
  program_md5 : string;  (** MD5 of the executed program's text *)
  program_text : string option;  (** the executed (hardened) program *)
  fail_blocks : (string * int) list;  (** fail-arm label name -> site id *)
  decisions : int array;  (** chosen tid per scheduling decision *)
  preemptions : int array;
      (** ordinals into [decisions] where the previously-running thread
          was still eligible but another was chosen — the context
          switches the minimizer searches over *)
  steps : int;  (** recorded virtual time (idle ticks included) *)
  instrs : int;
  rollbacks : int;
  outcome : Outcome.t;
  outputs : string list;
}

val version : int

val digest : string -> string
(** MD5 hex of a program text. *)

val digest_program : Program.t -> string

val fail_blocks_of_meta : Machine.meta option -> (string * int) list
(** Serialize recovery metadata as (label name, site id) pairs. *)

val meta_of_fail_blocks : (string * int) list -> Machine.meta option
(** Rebuild [Machine.meta] recovery metadata from serialized (label
    name, site id) pairs; [None] when the list is empty. *)

val machine_meta : t -> Machine.meta option
(** Rebuild the [Machine.meta] recovery metadata recorded in
    [fail_blocks]; [None] for unhardened runs. *)

val program : t -> (Program.t, string) result
(** Parse the embedded program text. *)

val to_lines : t -> string list
(** The JSONL serialization, one element per line (no newlines). *)

val to_string : t -> string
(** The on-disk encoding: [to_lines], each newline-terminated. *)

val of_lines : string list -> (t, string) result
(** The log's only schema and validator: record order, integer decision
    chunks, a trailer whose count matches, and preemption ordinals
    strictly ascending inside [\[0, decisions)]. *)

val save : t -> string -> unit
(** Write [to_string] atomically (temp file + rename). *)

val load : string -> (t, string) result
(** Read a file and decode it with [of_lines] (blank lines skipped). *)
