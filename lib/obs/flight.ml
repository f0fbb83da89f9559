(* The diagnostic bundle: one self-contained JSON document dumped from a
   flight-recorder ring (plus the machine's post-mortem state) when a
   run fails — or on explicit request.

   A bundle carries everything a post-mortem needs without any prior
   opt-in: run identification and config, the embedded program text and
   its MD5, the retained decision tail (encoded as the same
   "sched_chunk" objects full schedule logs use — see
   [Jsonl.sched_chunks]), the preemptive switches inside the tail,
   per-thread status + held locksets, the recent sync/recovery events,
   recovery-episode spans, and the run's trailer (steps, instrs,
   rollbacks, outcome, outputs).

   Because runs are deterministic from (program, seed, config, engine),
   the bundle is also a *regeneration recipe*: [Conair_replay.Bundle]
   re-runs the embedded program under the embedded config, checks the
   re-run's decision suffix and trailer against the recorded tail, and
   returns a full schedule log — after which ordinary replay, directed
   replay and minimization apply unchanged.

   The document is engine-independent except for the "engine" field
   itself: all three engines produce byte-identical sections on the same
   run, which the flight test suite enforces over the bugbench
   catalog. *)

open Conair_runtime
module Ring = Flight_ring

type event = {
  bv_kind : string;
  bv_step : int;
  bv_tid : int;
  bv_arg : int;
  bv_detail : string;
}

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
  fb_mode : string;
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
  fb_events : event list;
  fb_episodes : episode list;  (** chronological *)
}

let version = 1

(* ------------------------------------------------------------------ *)
(* Construction from a ring + post-mortem machine state                 *)
(* ------------------------------------------------------------------ *)

let of_ring ~app ~variant ~oracle ~mode ~engine ~reason ~config ~program_md5
    ~program_text ~fail_blocks ~threads ~episodes ~steps ~instrs ~rollbacks
    ~outcome ~outputs (ring : Ring.t) =
  {
    fb_app = app;
    fb_variant = variant;
    fb_oracle = oracle;
    fb_mode = mode;
    fb_engine = engine;
    fb_reason = reason;
    fb_config = config;
    fb_program_md5 = program_md5;
    fb_program_text = program_text;
    fb_fail_blocks = fail_blocks;
    fb_tail_first = Ring.tail_first ring;
    fb_tail_total = Ring.total ring;
    fb_tail = Ring.tail ring;
    fb_tail_preemptions = Ring.tail_preemptions ring;
    fb_steps = steps;
    fb_instrs = instrs;
    fb_rollbacks = rollbacks;
    fb_outcome = outcome;
    fb_outputs = outputs;
    fb_threads = threads;
    fb_events =
      List.map
        (fun (e : Ring.event) ->
          {
            bv_kind = Ring.kind_name e.Ring.fe_kind;
            bv_step = e.Ring.fe_step;
            bv_tid = e.Ring.fe_tid;
            bv_arg = e.Ring.fe_arg;
            bv_detail = e.Ring.fe_detail;
          })
        (Ring.events ring);
    fb_episodes =
      List.map
        (fun (ep : Stats.episode) ->
          {
            be_site = ep.Stats.ep_site_id;
            be_tid = ep.Stats.ep_tid;
            be_start = ep.Stats.ep_start;
            be_end = ep.Stats.ep_end;
            be_retries = ep.Stats.ep_retries;
          })
        episodes;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let to_json t : Json.t =
  Json.Obj
    ([
       ("type", Json.String "flight_bundle");
       ("version", Json.Int version);
       ("app", Json.String t.fb_app);
       ("variant", Json.String t.fb_variant);
       ("oracle", Json.Bool t.fb_oracle);
       ("mode", Json.String t.fb_mode);
       ("engine", Json.String t.fb_engine);
       ("reason", Json.String t.fb_reason);
       ("config", Jsonl.config_json t.fb_config);
       ("program_md5", Json.String t.fb_program_md5);
     ]
    @ (match t.fb_program_text with
      | None -> []
      | Some text -> [ ("program", Json.String text) ])
    @ Jsonl.fail_blocks_fields t.fb_fail_blocks
    @ [
        ( "tail",
          Json.Obj
            [
              ("first", Json.Int t.fb_tail_first);
              ("total", Json.Int t.fb_tail_total);
              ("preemptions", ints t.fb_tail_preemptions);
              ("chunks", Json.List (Jsonl.sched_chunks t.fb_tail));
            ] );
        ( "trailer",
          Json.Obj
            [
              ("steps", Json.Int t.fb_steps);
              ("instrs", Json.Int t.fb_instrs);
              ("rollbacks", Json.Int t.fb_rollbacks);
              ("outcome", Report.outcome_json t.fb_outcome);
              ( "outputs",
                Json.List (List.map (fun s -> Json.String s) t.fb_outputs) );
            ] );
        ( "threads",
          Json.List
            (List.map
               (fun (tid, status, locks) ->
                 Json.Obj
                   [
                     ("tid", Json.Int tid);
                     ("status", Json.String status);
                     ( "locks",
                       Json.List (List.map (fun l -> Json.String l) locks) );
                   ])
               t.fb_threads) );
        ( "events",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("ev", Json.String e.bv_kind);
                     ("step", Json.Int e.bv_step);
                     ("tid", Json.Int e.bv_tid);
                     ("arg", Json.Int e.bv_arg);
                     ("detail", Json.String e.bv_detail);
                   ])
               t.fb_events) );
        ( "episodes",
          Json.List
            (List.map
               (fun ep ->
                 Json.Obj
                   [
                     ("site", Json.Int ep.be_site);
                     ("tid", Json.Int ep.be_tid);
                     ("start", Json.Int ep.be_start);
                     ("end", Json.Int ep.be_end);
                     ("retries", Json.Int ep.be_retries);
                   ])
               t.fb_episodes) );
      ])

let to_string t = Json.to_string (to_json t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Decoding — the codec is the bundle's only schema and validator       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let check ok fmt =
  Printf.ksprintf (fun msg -> if ok then Ok () else Error msg) fmt

let nonempty name j =
  let* s = Json.string_field name j in
  if s = "" then Error (Printf.sprintf "empty %S field" name) else Ok s

let is_md5 d =
  String.length d = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d

let decode_thread j =
  let* tid = Json.int_field "tid" j in
  let* status = nonempty "status" j in
  let* locks = Json.string_list_field "locks" j in
  let* () = check (tid >= 0) "negative thread id %d" tid in
  Ok (tid, status, locks)

let decode_event j =
  let* bv_kind = nonempty "ev" j in
  let* bv_step = Json.int_field "step" j in
  let* bv_tid = Json.int_field "tid" j in
  let* bv_arg = Json.int_field "arg" j in
  let* bv_detail = Json.string_field "detail" j in
  Ok { bv_kind; bv_step; bv_tid; bv_arg; bv_detail }

let decode_episode j =
  let* be_site = Json.int_field "site" j in
  let* be_tid = Json.int_field "tid" j in
  let* be_start = Json.int_field "start" j in
  let* be_end = Json.int_field "end" j in
  let* be_retries = Json.int_field "retries" j in
  let* () =
    check (be_end >= be_start) "episode ends at %d before it starts at %d"
      be_end be_start
  in
  Ok { be_site; be_tid; be_start; be_end; be_retries }

let decode (j : Json.t) : (t, string) result =
  let* ty = Json.string_field "type" j in
  let* () = check (ty = "flight_bundle") "not a flight_bundle document" in
  let* v = Json.int_field "version" j in
  let* () = check (v = version) "unsupported version %d" v in
  let* fb_app = nonempty "app" j in
  let* fb_variant = nonempty "variant" j in
  let* fb_oracle = Json.bool_field "oracle" j in
  let* fb_mode = nonempty "mode" j in
  let* fb_engine = nonempty "engine" j in
  let* fb_reason = nonempty "reason" j in
  let* fb_config = Result.bind (Json.field "config" j) Jsonl.config_of_json in
  let* () = check (fb_config.Machine.fuel > 0) "config fuel is not positive" in
  let* fb_program_md5 = Json.string_field "program_md5" j in
  let* () =
    check (is_md5 fb_program_md5) "\"program_md5\" is not an MD5 digest"
  in
  let* fb_program_text = Json.string_opt_field "program" j in
  let* () =
    match fb_program_text with
    | Some text ->
        check
          (Digest.to_hex (Digest.string text) = fb_program_md5)
          "embedded program does not hash to program_md5"
    | None -> Ok ()
  in
  let* fb_fail_blocks = Jsonl.fail_blocks_of_json j in
  let* tail_j = Json.field "tail" j in
  let* first = Json.int_field "first" tail_j in
  let* total = Json.int_field "total" tail_j in
  let* () =
    check (0 <= first && first <= total)
      "tail window first %d, total %d is not 0 <= first <= total" first total
  in
  let* preemptions = Json.int_list_field "preemptions" tail_j in
  let* () = Jsonl.check_preemptions ~first ~total preemptions in
  let* chunks = Json.list_field "chunks" Jsonl.sched_chunk_decisions tail_j in
  let fb_tail = Array.of_list (List.concat chunks) in
  let* () =
    check
      (Array.length fb_tail = total - first)
      "tail chunks carry %d decisions, total - first says %d"
      (Array.length fb_tail) (total - first)
  in
  let* trailer_j = Json.field "trailer" j in
  let* fb_steps = Json.int_field "steps" trailer_j in
  let* fb_instrs = Json.int_field "instrs" trailer_j in
  let* fb_rollbacks = Json.int_field "rollbacks" trailer_j in
  let* () =
    check
      (fb_steps >= 0 && fb_instrs >= 0 && fb_rollbacks >= 0)
      "negative trailer count"
  in
  let* fb_outcome =
    Result.bind (Json.field "outcome" trailer_j) Report.outcome_of_json
  in
  let* fb_outputs = Json.string_list_field "outputs" trailer_j in
  let* fb_threads = Json.list_field "threads" decode_thread j in
  let* fb_events = Json.list_field "events" decode_event j in
  let* fb_episodes = Json.list_field "episodes" decode_episode j in
  Ok
    {
      fb_app;
      fb_variant;
      fb_oracle;
      fb_mode;
      fb_engine;
      fb_reason;
      fb_config;
      fb_program_md5;
      fb_program_text;
      fb_fail_blocks;
      fb_tail_first = first;
      fb_tail_total = total;
      fb_tail;
      fb_tail_preemptions = Array.of_list preemptions;
      fb_steps;
      fb_instrs;
      fb_rollbacks;
      fb_outcome;
      fb_outputs;
      fb_threads;
      fb_events;
      fb_episodes;
    }

let of_json j = Result.map_error (fun e -> "bundle: " ^ e) (decode j)

let of_string s =
  let* j = Result.map_error (fun e -> "bundle: " ^ e) (Json.of_string s) in
  of_json j

let save t file = Jsonl.write_file file (to_string t)

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> of_string (String.trim text)
  | exception Sys_error e -> Error ("bundle: " ^ e)
