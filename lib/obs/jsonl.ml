(* Streaming JSONL serialization of trace events.

   The encoding here is the *contract* of the event-log file format (see
   docs/OBSERVABILITY.md): stable field names, step/tid always present,
   event-specific payload fields after them. Both interpreters emit
   identical [Trace.event] values on identical runs, so identical logs —
   the differential test compares the serialized bytes. *)

open Conair_runtime
module Instr = Conair_ir.Instr

type run_meta = {
  app : string;
  variant : string;
  seed : int option;
  engine : string;  (** "fast" ([Machine]) or "ref" ([Ref_machine]) *)
  hardened : bool;
}

let run_meta ?(variant = "") ?seed ?(engine = "fast") ?(hardened = false) app =
  { app; variant; seed; engine; hardened }

let failure_kind_name (k : Instr.failure_kind) =
  Format.asprintf "%a" Instr.pp_failure_kind k

let policy_json : Sched.policy -> Json.t = function
  | Sched.Round_robin -> Json.String "round-robin"
  | Sched.Random seed ->
      Json.Obj [ ("random", Json.Int seed) ]

let config_json (c : Machine.config) : Json.t =
  Json.Obj
    [
      ("policy", policy_json c.policy);
      ("fuel", Json.Int c.fuel);
      ("max_retries", Json.Int c.max_retries);
      ( "deadlock_detection",
        Json.String
          (match c.deadlock_detection with
          | Machine.Timeout_based -> "timeout"
          | Machine.Wait_graph -> "wait-graph") );
      ("deadlock_backoff", Json.Int c.deadlock_backoff);
      ("verify_rollbacks", Json.Bool c.verify_rollbacks);
      ("perturb_timing", Json.Bool c.perturb_timing);
      ("spawn_jitter", Json.Int c.spawn_jitter);
      ("profile_sites", Json.Bool c.profile_sites);
    ]

let policy_of_json : Json.t -> (Sched.policy, string) result = function
  | Json.String "round-robin" -> Ok Sched.Round_robin
  | Json.Obj _ as j -> (
      match Json.member "random" j with
      | Some (Json.Int seed) -> Ok (Sched.Random seed)
      | _ -> Error "config: malformed policy object")
  | _ -> Error "config: malformed policy"

(* Decode a [config_json] object. Fields absent from the object (logs
   written before a knob existed) keep their [Machine.default_config]
   value; present fields must be well-typed. *)
let config_of_json (j : Json.t) : (Machine.config, string) result =
  let ( let* ) = Result.bind in
  let field name decode default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
        match decode v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "config: malformed %S field" name))
  in
  let int = function Json.Int n -> Some n | _ -> None in
  let bool = function Json.Bool b -> Some b | _ -> None in
  match j with
  | Json.Obj _ ->
      let d = Machine.default_config in
      let* policy =
        match Json.member "policy" j with
        | None -> Ok d.policy
        | Some p -> policy_of_json p
      in
      let* fuel = field "fuel" int d.fuel in
      let* max_retries = field "max_retries" int d.max_retries in
      let* deadlock_detection =
        field "deadlock_detection"
          (function
            | Json.String "timeout" -> Some Machine.Timeout_based
            | Json.String "wait-graph" -> Some Machine.Wait_graph
            | _ -> None)
          d.deadlock_detection
      in
      let* deadlock_backoff = field "deadlock_backoff" int d.deadlock_backoff in
      let* verify_rollbacks = field "verify_rollbacks" bool d.verify_rollbacks in
      let* perturb_timing = field "perturb_timing" bool d.perturb_timing in
      let* spawn_jitter = field "spawn_jitter" int d.spawn_jitter in
      let* profile_sites = field "profile_sites" bool d.profile_sites in
      Ok
        {
          Machine.policy;
          fuel;
          max_retries;
          deadlock_detection;
          deadlock_backoff;
          verify_rollbacks;
          perturb_timing;
          spawn_jitter;
          profile_sites;
        }
  | _ -> Error "config: expected an object"

let meta_json ?config (meta : run_meta) : Json.t =
  Json.Obj
    (("type", Json.String "meta")
     :: ("app", Json.String meta.app)
     :: (if meta.variant = "" then []
         else [ ("variant", Json.String meta.variant) ])
    @ (match meta.seed with
      | None -> []
      | Some s -> [ ("seed", Json.Int s) ])
    @ [
        ("engine", Json.String meta.engine);
        ("hardened", Json.Bool meta.hardened);
      ]
    @
    (* the execution parameters (policy + seed, fuel, retry budget, ...)
       ride in the config subobject, making the log self-describing *)
    match config with
    | None -> []
    | Some c -> [ ("config", config_json c) ])

let event_json (ev : Trace.event) : Json.t =
  let mk name step tid rest =
    Json.Obj
      (("type", Json.String "event")
      :: ("ev", Json.String name)
      :: ("step", Json.Int step)
      :: ("tid", Json.Int tid)
      :: rest)
  in
  match ev with
  | Trace.Ev_schedule { step; tid } -> mk "schedule" step tid []
  | Trace.Ev_block { step; tid; lock } ->
      mk "block" step tid [ ("lock", Json.String lock) ]
  | Trace.Ev_wake { step; tid } -> mk "wake" step tid []
  | Trace.Ev_spawn { step; parent; child } ->
      mk "spawn" step parent [ ("child", Json.Int child) ]
  | Trace.Ev_thread_done { step; tid } -> mk "thread_done" step tid []
  | Trace.Ev_output { step; tid; text } ->
      mk "output" step tid [ ("text", Json.String text) ]
  | Trace.Ev_checkpoint { step; tid; ckpt_id } ->
      mk "checkpoint" step tid [ ("ckpt_id", Json.Int ckpt_id) ]
  | Trace.Ev_failure_detected { step; tid; site_id; kind } ->
      mk "failure_detected" step tid
        [
          ("site_id", Json.Int site_id);
          ("kind", Json.String (failure_kind_name kind));
        ]
  | Trace.Ev_rollback { step; tid; site_id; retry } ->
      mk "rollback" step tid
        [ ("site_id", Json.Int site_id); ("retry", Json.Int retry) ]
  | Trace.Ev_compensate_lock { step; tid; lock } ->
      mk "compensate_lock" step tid [ ("lock", Json.String lock) ]
  | Trace.Ev_compensate_block { step; tid; block } ->
      mk "compensate_block" step tid [ ("block", Json.Int block) ]
  | Trace.Ev_recovered { step; tid; site_id } ->
      mk "recovered" step tid [ ("site_id", Json.Int site_id) ]
  | Trace.Ev_fail_stop { step; tid; site_id } ->
      mk "fail_stop" step tid [ ("site_id", Json.Int site_id) ]

let event_line ev = Json.to_string (event_json ev)

(* --- the sched_chunk encoding ---------------------------------------

   One schedule-log decision chunk: {"type":"sched_chunk","d":[tid,...]}.
   This is the contract shared by the full recorder ([Conair_replay]'s
   schedule logs) and the flight recorder's bundle tails — extracted here
   so the two can never drift and every `.sched.jsonl` consumer (replay
   feeds, checkers, the fuzz corpus) accepts either's chunks unchanged. *)

let sched_chunk_size = 4096

let sched_chunks (d : int array) : Json.t list =
  let n = Array.length d in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let len = min sched_chunk_size (n - pos) in
      let chunk =
        Json.Obj
          [
            ("type", Json.String "sched_chunk");
            ("d", Json.List (List.init len (fun i -> Json.Int d.(pos + i))));
          ]
      in
      go (pos + len) (chunk :: acc)
  in
  go 0 []

let sched_chunk_decisions (j : Json.t) : (int list, string) result =
  match Json.member "type" j with
  | Some (Json.String "sched_chunk") -> Json.int_list_field "d" j
  | _ -> Error "not a sched_chunk record"

(* Preemption ordinals index the decision stream: strictly ascending
   inside the window [first, total) the stream covers. *)
let check_preemptions ~first ~total ps =
  let rec go prev = function
    | [] -> Ok ()
    | p :: rest ->
        if p <= prev || p >= total then
          Error
            (Printf.sprintf
               "preemption ordinal %d is not strictly ascending inside [%d, \
                %d)"
               p first total)
        else go p rest
  in
  go (first - 1) ps

(* --- the fail-block table --------------------------------------------

   A hardened program's recovery metadata as (fail-arm label, site id)
   pairs, the optional {"fail_blocks":[["name",site],...]} member of
   schedule-log headers and flight bundles; omitted when empty. *)

let fail_blocks_fields = function
  | [] -> []
  | fbs ->
      [
        ( "fail_blocks",
          Json.List
            (List.map
               (fun (name, site) ->
                 Json.List [ Json.String name; Json.Int site ])
               fbs) );
      ]

let fail_blocks_of_json (j : Json.t) : ((string * int) list, string) result =
  match Json.member "fail_blocks" j with
  | None -> Ok []
  | Some _ ->
      Json.list_field "fail_blocks"
        (function
          | Json.List [ Json.String name; Json.Int site ] -> Ok (name, site)
          | _ -> Error "malformed \"fail_blocks\" field")
        j

(* Replace [path] atomically: write a sibling temp file, then rename it
   over the target, so a reader never sees a half-written artifact. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_text tmp (fun oc -> output_string oc contents)
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

type writer = { write : string -> unit }

let channel_writer oc =
  {
    write =
      (fun line ->
        output_string oc line;
        output_char oc '\n');
  }

let buffer_writer buf =
  {
    write =
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n');
  }

let write_json w j = w.write (Json.to_string j)

let sink ?config ?meta ?(store = false) (w : writer) : Trace.sink =
  (match meta with
  | Some m -> write_json w (meta_json ?config m)
  | None -> ());
  Trace.create ~emit:(fun ev -> w.write (event_line ev)) ~store ()

let events_to_lines ?config ?meta events =
  let header =
    match meta with
    | Some m -> [ Json.to_string (meta_json ?config m) ]
    | None -> []
  in
  header @ List.map event_line events
