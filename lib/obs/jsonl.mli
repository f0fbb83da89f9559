(** Streaming JSONL (one JSON object per line) serialization of the
    runtime's trace stream.

    The event encoding is canonical: both engines ([Machine] and
    [Ref_machine]) feed the same {!Conair_runtime.Trace.event} values
    through {!event_json}, so the differential guarantee of
    [test_fast_exec] extends to the serialized telemetry — byte-identical
    event logs from byte-identical traces.

    A log starts with one [meta] record (["type": "meta"]) describing the
    run, followed by one ["type": "event"] record per trace event, in
    occurrence order. *)

open Conair_runtime

(** Identification of the run being logged, written as the first line. *)
type run_meta = {
  app : string;  (** benchmark/app name, or a caller-chosen label *)
  variant : string;  (** e.g. "buggy" / "clean"; "" omits the field *)
  seed : int option;  (** random-scheduler seed, when one was used *)
  engine : string;  (** "ref", "fast" or "block" ({!Engine.name}) *)
  hardened : bool;  (** whether the run executes a hardened program *)
}

val run_meta :
  ?variant:string -> ?seed:int -> ?engine:string -> ?hardened:bool ->
  string -> run_meta
(** [engine] defaults to ["fast"], [hardened] to [false]. The facade's
    observed run ([Conair.run_observed]) sets both from the run
    itself. *)

val config_json : Machine.config -> Json.t
(** The execution-affecting knobs (policy, fuel, max_retries, deadlock
    detection, perturbation) as a JSON object. *)

val policy_of_json : Json.t -> (Sched.policy, string) result

val config_of_json : Json.t -> (Machine.config, string) result
(** Decode a {!config_json} object; fields absent from the object keep
    their [Machine.default_config] value, so older logs stay loadable.
    The inverse of {!config_json} — the foundation of the self-contained
    schedule logs of [Conair_replay]. *)

val meta_json : ?config:Machine.config -> run_meta -> Json.t
(** The header record: [{"type":"meta","app":...,"variant":...,"seed":...,
    "engine":...,"hardened":...,"config":{...}}]. The config subobject
    captures the remaining knobs that affect execution (scheduling policy
    and its seed, fuel, max_retries, deadlock detection...), making the
    log self-describing. *)

val event_json : Trace.event -> Json.t
(** One trace event as [{"type":"event","ev":<name>,"step":...,...}]. *)

val event_line : Trace.event -> string
(** [event_json] encoded compactly — one JSONL line, no newline. *)

(** {1 Schedule-decision chunks}

    The [{"type":"sched_chunk","d":[tid,...]}] record shared by the full
    schedule logs of [Conair_replay] and the flight recorder's bundle
    tails. One encoder, one decoder — so `.sched.jsonl` consumers accept
    chunks from either producer unchanged. *)

val sched_chunk_size : int
(** Decisions per chunk (4096). *)

val sched_chunks : int array -> Json.t list
(** The whole decision array, split into [sched_chunk_size]-sized
    chunks, in order. Empty input yields no chunks. *)

val sched_chunk_decisions : Json.t -> (int list, string) result
(** Decode one chunk record's decision list; [Error] unless it is a
    well-formed ["sched_chunk"]. *)

val check_preemptions :
  first:int -> total:int -> int list -> (unit, string) result
(** [Error] unless the preemption ordinals are strictly ascending inside
    [\[first, total)] — the window of decisions the stream covers. *)

(** {1 Fail-block tables}

    A hardened program's recovery metadata as (fail-arm label name,
    site id) pairs — the optional ["fail_blocks"] member shared by
    schedule-log headers and flight bundles. *)

val fail_blocks_fields : (string * int) list -> (string * Json.t) list
(** The member to splice into an object: none when the table is empty. *)

val fail_blocks_of_json : Json.t -> ((string * int) list, string) result
(** Read the optional member of an object; absent means empty. *)

(** {1 Files} *)

val write_file : string -> string -> unit
(** [write_file path contents] replaces [path] atomically: the contents
    go to [path ^ ".tmp"], which is then renamed over [path]. Every
    artifact writer (schedule logs, bundles, reports, metrics) uses it,
    so a reader never sees a half-written file. *)

(** A line-oriented writer: [write] receives complete JSON lines
    (newline excluded). Writers for channels and buffers are provided. *)
type writer = { write : string -> unit }

val channel_writer : out_channel -> writer
val buffer_writer : Buffer.t -> writer

val write_json : writer -> Json.t -> unit
(** Encode compactly and emit as one line. *)

val sink :
  ?config:Machine.config ->
  ?meta:run_meta ->
  ?store:bool ->
  writer ->
  Trace.sink
(** A trace sink that streams every event to [writer] as it is recorded.
    When [meta] is given, the header record is written immediately.
    [store] defaults to [false]: streaming does not retain events in
    memory unless asked (pass [~store:true] to also keep them for span
    building after the run). Install with [Machine.set_trace]. *)

val events_to_lines : ?config:Machine.config -> ?meta:run_meta ->
  Trace.event list -> string list
(** Batch serialization of an already-collected event list — the same
    lines [sink] would have streamed. *)
