(* The schedule log: a recorded run's scheduling decisions plus enough
   metadata to re-execute it from the file alone.

   Serialized as JSONL so the existing line-oriented tooling (json_check,
   plain grep/jq) works on it unchanged:

     {"type":"sched_meta", ...}     identification, config, program text
     {"type":"sched_chunk","d":[...]}   decision stream, <= 4096 per line
     {"type":"sched_end", ...}      counts, preemption ordinals, outcome

   The meta line embeds the *executed* program (hardened text when the
   run was hardened) and its MD5, so a log replays without access to the
   original registry entry — and a replay against a supplied program can
   detect a mismatch before running a single step. The fail-block table
   (label name -> site id) reconstructs the [Machine.meta] recovery
   metadata for hardened programs. *)

open Conair_ir
open Conair_runtime
module Json = Conair_obs.Json
module Jsonl = Conair_obs.Jsonl
module Report = Conair_obs.Report

type ident = {
  id_app : string;
  id_variant : string;
  id_oracle : bool;
  id_mode : string;  (** "none" (unhardened), "survival" or "fix" *)
}

let ident ?(variant = "buggy") ?(oracle = false) ?(mode = "none") app =
  { id_app = app; id_variant = variant; id_oracle = oracle; id_mode = mode }

type t = {
  ident : ident;
  engine : string;  (** which engine recorded it: "ref", "fast" or "block" *)
  config : Machine.config;
  program_md5 : string;
  program_text : string option;
  fail_blocks : (string * int) list;  (** fail-arm label name -> site id *)
  decisions : int array;
  preemptions : int array;  (** ordinals into [decisions], ascending *)
  steps : int;
  instrs : int;
  rollbacks : int;
  outcome : Outcome.t;
  outputs : string list;
}

let version = 1
let digest text = Digest.to_hex (Digest.string text)
let digest_program p = digest (Emit.program p)

let fail_blocks_of_meta : Machine.meta option -> (string * int) list = function
  | None -> []
  | Some mm ->
      List.map
        (fun (l, site) -> (Ident.Label.name l, site))
        mm.Machine.fail_blocks

let meta_of_fail_blocks : (string * int) list -> Machine.meta option = function
  | [] -> None
  | fbs ->
      let fail_index = Hashtbl.create (List.length fbs) in
      List.iter (fun (name, site) -> Hashtbl.replace fail_index name site) fbs;
      Some
        {
          Machine.fail_blocks =
            List.map (fun (name, site) -> (Ident.Label.v name, site)) fbs;
          fail_index;
        }

let machine_meta t : Machine.meta option = meta_of_fail_blocks t.fail_blocks

let program t =
  match t.program_text with
  | None -> Error "schedule log: no embedded program"
  | Some text -> (
      match Parse.program text with
      | Ok p -> Ok p
      | Error e ->
          Error
            (Format.asprintf "schedule log: embedded program: %a"
               Parse.pp_error e))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let meta_json t =
  Json.Obj
    ([
       ("type", Json.String "sched_meta");
       ("version", Json.Int version);
       ("app", Json.String t.ident.id_app);
       ("variant", Json.String t.ident.id_variant);
       ("oracle", Json.Bool t.ident.id_oracle);
       ("mode", Json.String t.ident.id_mode);
       ("engine", Json.String t.engine);
       ("config", Jsonl.config_json t.config);
       ("program_md5", Json.String t.program_md5);
     ]
    @ (match t.program_text with
      | None -> []
      | Some text -> [ ("program", Json.String text) ])
    @ Jsonl.fail_blocks_fields t.fail_blocks)

let end_json t =
  Json.Obj
    [
      ("type", Json.String "sched_end");
      ("decisions", Json.Int (Array.length t.decisions));
      ("preemptions", ints t.preemptions);
      ("steps", Json.Int t.steps);
      ("instrs", Json.Int t.instrs);
      ("rollbacks", Json.Int t.rollbacks);
      ("outcome", Report.outcome_json t.outcome);
      ("outputs", Json.List (List.map (fun s -> Json.String s) t.outputs));
    ]

let to_lines t =
  List.map Json.to_string
    ((meta_json t :: Jsonl.sched_chunks t.decisions) @ [ end_json t ])

let to_string t =
  String.concat "" (List.map (fun line -> line ^ "\n") (to_lines t))

let save t file = Jsonl.write_file file (to_string t)

(* ------------------------------------------------------------------ *)
(* Decoding — the codec is the log's only schema and validator          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let line_type = Json.string_member "type"

let parse_meta j =
  let* v = Json.int_field "version" j in
  if v > version then Error (Printf.sprintf "unsupported version %d" v)
  else
    let* id_app = Json.string_field "app" j in
    let* id_variant = Json.string_field "variant" j in
    let* id_oracle = Json.bool_field "oracle" j in
    let* id_mode = Json.string_field "mode" j in
    let* engine = Json.string_field "engine" j in
    let* config = Result.bind (Json.field "config" j) Jsonl.config_of_json in
    let* program_md5 = Json.string_field "program_md5" j in
    let* program_text = Json.string_opt_field "program" j in
    let* fail_blocks = Jsonl.fail_blocks_of_json j in
    Ok
      ( { id_app; id_variant; id_oracle; id_mode },
        engine,
        config,
        program_md5,
        program_text,
        fail_blocks )

let decode_lines lines =
  match lines with
  | [] -> Error "empty"
  | meta_line :: rest ->
      let* meta_j = Json.of_string meta_line in
      if line_type meta_j <> "sched_meta" then
        Error "first line is not a sched_meta record"
      else
        let* ident, engine, config, program_md5, program_text, fail_blocks =
          parse_meta meta_j
        in
        (* decision chunks, then exactly one trailing end record *)
        let buf = ref (Array.make 1024 0) in
        let n = ref 0 in
        let push tid =
          if !n = Array.length !buf then begin
            let bigger = Array.make (2 * !n) 0 in
            Array.blit !buf 0 bigger 0 !n;
            buf := bigger
          end;
          !buf.(!n) <- tid;
          incr n
        in
        let rec walk = function
          | [] -> Error "missing sched_end record"
          | line :: rest -> (
              let* j = Json.of_string line in
              match line_type j with
              | "sched_chunk" ->
                  let* d = Jsonl.sched_chunk_decisions j in
                  List.iter push d;
                  walk rest
              | "sched_end" ->
                  if rest <> [] then Error "lines after the sched_end record"
                  else
                    let* count = Json.int_field "decisions" j in
                    if count <> !n then
                      Error
                        (Printf.sprintf
                           "sched_end declares %d decisions, chunks carry %d"
                           count !n)
                    else
                      let* preempts = Json.int_list_field "preemptions" j in
                      let* () =
                        Jsonl.check_preemptions ~first:0 ~total:!n preempts
                      in
                      let* steps = Json.int_field "steps" j in
                      let* instrs = Json.int_field "instrs" j in
                      let* rollbacks = Json.int_field "rollbacks" j in
                      let* outcome =
                        Result.bind (Json.field "outcome" j)
                          Report.outcome_of_json
                      in
                      let* outputs = Json.string_list_field "outputs" j in
                      Ok
                        {
                          ident;
                          engine;
                          config;
                          program_md5;
                          program_text;
                          fail_blocks;
                          decisions = Array.sub !buf 0 !n;
                          preemptions = Array.of_list preempts;
                          steps;
                          instrs;
                          rollbacks;
                          outcome;
                          outputs;
                        }
              | other -> Error (Printf.sprintf "unexpected %S record" other))
        in
        walk rest

let of_lines lines =
  Result.map_error (fun e -> "schedule log: " ^ e) (decode_lines lines)

let load file =
  match In_channel.with_open_text file In_channel.input_lines with
  | lines -> of_lines (List.filter (fun l -> String.trim l <> "") lines)
  | exception Sys_error e -> Error ("schedule log: " ^ e)
