(* The wire protocol of the recovery service: newline-delimited JSON in
   both directions. A client sends one request object per line; the
   server answers with one or more response frames per line. Frames for
   a submitted job always arrive in the order ack -> telemetry* ->
   result, and per tenant results arrive in submission order (the
   pool's per-tenant FIFO guarantee).

   The payload vocabulary is the CLI's: a run job with the default
   knobs produces the same structured report as

     conair_cli report APP --seed N

   byte for byte, because both sides execute it through [Job.run]. *)

module Json = Conair_obs.Json

(* ------------------------------------------------------------------ *)
(* Job specifications                                                  *)
(* ------------------------------------------------------------------ *)

(* What to execute: a bugbench registry benchmark, or an inline Mir
   program shipped as source text. *)
type target =
  | Bench of { app : string; variant : string; oracle : bool }
  | Source of string

(* Execution knobs. The CLI's --engine, --fuel and --max-retries flags
   take their defaults from [default_exec]. *)
type exec = {
  engine : Conair.Runtime.Engine.t;  (** on the wire: its name *)
  fuel : int;
  seed : int option;  (** random-scheduler seed; [None] = round-robin *)
  max_retries : int;
}

let default_exec =
  {
    engine = Conair.Runtime.Engine.Fast;
    fuel = 8_000_000;
    seed = None;
    max_retries = 1_000_000;
  }

type spec =
  | Run of { target : target; mode : string; exec : exec }
      (** observed execution; [mode] is "none" | "survival" | "fix" *)
  | Harden of { target : target; mode : string }
      (** static pipeline only; returns the transformed program text *)
  | Detect of { target : target; original : bool; exec : exec }
      (** race/deadlock detection, hardened unless [original] *)
  | Minimize of { log : string list; max_tests : int; detect : bool }
      (** ddmin over an embedded schedule log (JSONL lines) *)
  | Fuzz of { target : target; runs : int; base_seed : int; exec : exec }
      (** seed sweep of hardened runs; returns the aggregate *)
  | Fix of {
      target : target;
      max_candidates : int;
      sweep_seeds : int;
      search_seeds : int;
      exec : exec;
    }
      (** the whole fix pipeline: detect, record+minimize a failing
          schedule, synthesize candidate patches, validate through the
          three gates, rank survivors; returns the fix report *)

let kind_name = function
  | Run _ -> "run"
  | Harden _ -> "harden"
  | Detect _ -> "detect"
  | Minimize _ -> "minimize"
  | Fuzz _ -> "fuzz"
  | Fix _ -> "fix"

(* ------------------------------------------------------------------ *)
(* Requests and responses                                              *)
(* ------------------------------------------------------------------ *)

type request =
  | Submit of { tenant : string; id : string; job : spec }
  | Status
  | Metrics  (** Prometheus text exposition of the shared registry *)
  | Spans of { tenant : string; id : string }
      (** Chrome trace-event export of a finished run job *)
  | Bundle of { tenant : string; id : string }
      (** flight-recorder diagnostic bundle of a failed run job *)
  | Ping
  | Shutdown  (** drain queued and in-flight jobs, then exit *)

(* Frame constructors. Responses are plain [Json.t]; the writer side
   encodes them compactly, one per line. *)

let str s = Json.String s

let ack ~tenant ~id ~queue_depth =
  Json.Obj
    [
      ("type", str "ack");
      ("tenant", str tenant);
      ("id", str id);
      ("queue_depth", Json.Int queue_depth);
    ]

let telemetry ~tenant ~id line =
  Json.Obj
    [
      ("type", str "telemetry");
      ("tenant", str tenant);
      ("id", str id);
      ("line", line);
    ]

let result ~tenant ~id ~status ~exit ~elapsed_ms report =
  Json.Obj
    [
      ("type", str "result");
      ("tenant", str tenant);
      ("id", str id);
      ("status", str status);
      ("exit", Json.Int exit);
      ("elapsed_ms", Json.Float elapsed_ms);
      ("report", report);
    ]

let error ?tenant ?id msg =
  Json.Obj
    (("type", str "error")
     :: (match tenant with Some t -> [ ("tenant", str t) ] | None -> [])
    @ (match id with Some i -> [ ("id", str i) ] | None -> [])
    @ [ ("message", str msg) ])

let metrics_frame body =
  Json.Obj
    [ ("type", str "metrics"); ("format", str "prometheus"); ("body", str body) ]

let spans_frame ~tenant ~id chrome =
  Json.Obj
    [
      ("type", str "spans");
      ("tenant", str tenant);
      ("id", str id);
      ("chrome", chrome);
    ]

let bundle_frame ~tenant ~id doc =
  Json.Obj
    [
      ("type", str "bundle");
      ("tenant", str tenant);
      ("id", str id);
      ("bundle", doc);
    ]

let pong = Json.Obj [ ("type", str "pong") ]

let bye ~draining =
  Json.Obj [ ("type", str "bye"); ("draining", Json.Int draining) ]

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

let mem k j = Json.member k j

let string_mem ?default k j =
  match (mem k j, default) with
  | Some (Json.String s), _ -> Ok s
  | None, Some d -> Ok d
  | _, _ -> Error (Printf.sprintf "expected string member %S" k)

let int_mem ~default k j =
  match mem k j with
  | Some (Json.Int n) -> Ok n
  | None -> Ok default
  | _ -> Error (Printf.sprintf "expected int member %S" k)

let bool_mem ~default k j =
  match mem k j with
  | Some (Json.Bool b) -> Ok b
  | None -> Ok default
  | _ -> Error (Printf.sprintf "expected bool member %S" k)

let ( let* ) = Result.bind

let exec_of_json j =
  let* engine =
    match mem "engine" j with
    | None -> Ok default_exec.engine
    | Some (Json.String name) -> Conair.Runtime.Engine.of_string name
    | Some _ -> Error "expected string member \"engine\""
  in
  let* fuel = int_mem ~default:default_exec.fuel "fuel" j in
  let* max_retries =
    int_mem ~default:default_exec.max_retries "max_retries" j
  in
  let* seed =
    match mem "seed" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int n) -> Ok (Some n)
    | Some _ -> Error "expected int member \"seed\""
  in
  if fuel < 1 then Error (Printf.sprintf "fuel out of range: %d" fuel)
  else if max_retries < 0 then
    Error (Printf.sprintf "max_retries out of range: %d" max_retries)
  else Ok { engine; fuel; seed; max_retries }

(* [max_program_bytes] bounds inline payloads (program text, embedded
   schedule logs) so one client cannot balloon the server's memory. *)
let target_of_json ~max_program_bytes j =
  match mem "program" j with
  | Some (Json.String src) ->
      if String.length src > max_program_bytes then
        Error
          (Printf.sprintf "program too large: %d bytes (limit %d)"
             (String.length src) max_program_bytes)
      else Ok (Source src)
  | Some _ -> Error "expected string member \"program\""
  | None ->
      let* app = string_mem "app" j in
      let* variant = string_mem ~default:"buggy" "variant" j in
      let* oracle = bool_mem ~default:false "oracle" j in
      if variant <> "buggy" && variant <> "clean" then
        Error (Printf.sprintf "unknown variant %S" variant)
      else Ok (Bench { app; variant; oracle })

let mode_of_json j =
  let* mode = string_mem ~default:"survival" "mode" j in
  match mode with
  | "none" | "survival" | "fix" -> Ok mode
  | m -> Error (Printf.sprintf "unknown mode %S" m)

let spec_of_json ~max_program_bytes j =
  let* kind = string_mem "kind" j in
  match kind with
  | "run" ->
      let* target = target_of_json ~max_program_bytes j in
      let* mode = mode_of_json j in
      let* exec = exec_of_json j in
      Ok (Run { target; mode; exec })
  | "harden" ->
      let* target = target_of_json ~max_program_bytes j in
      let* mode = mode_of_json j in
      if mode = "none" then Error "harden job needs mode survival or fix"
      else Ok (Harden { target; mode })
  | "detect" ->
      let* target = target_of_json ~max_program_bytes j in
      let* original = bool_mem ~default:false "original" j in
      let* exec = exec_of_json j in
      Ok (Detect { target; original; exec })
  | "minimize" ->
      let* log =
        match mem "log" j with
        | Some (Json.List lines) ->
            List.fold_left
              (fun acc l ->
                let* acc = acc in
                match l with
                | Json.String s -> Ok (s :: acc)
                | _ -> Error "expected \"log\" to be a list of strings")
              (Ok []) lines
            |> Result.map List.rev
        | _ -> Error "minimize job needs a \"log\" line list"
      in
      let bytes =
        List.fold_left (fun n l -> n + String.length l + 1) 0 log
      in
      if bytes > max_program_bytes then
        Error
          (Printf.sprintf "log too large: %d bytes (limit %d)" bytes
             max_program_bytes)
      else
        let* max_tests = int_mem ~default:2000 "max_tests" j in
        let* detect = bool_mem ~default:true "detect" j in
        if max_tests < 1 then
          Error (Printf.sprintf "max_tests out of range: %d" max_tests)
        else Ok (Minimize { log; max_tests; detect })
  | "fuzz" ->
      let* target = target_of_json ~max_program_bytes j in
      let* runs = int_mem ~default:5 "runs" j in
      let* base_seed = int_mem ~default:0 "base_seed" j in
      let* exec = exec_of_json j in
      if runs < 1 || runs > 10_000 then
        Error (Printf.sprintf "runs out of range: %d" runs)
      else Ok (Fuzz { target; runs; base_seed; exec })
  | "fix" ->
      let* target = target_of_json ~max_program_bytes j in
      let* max_candidates = int_mem ~default:8 "max_candidates" j in
      let* sweep_seeds = int_mem ~default:100 "sweep_seeds" j in
      let* search_seeds = int_mem ~default:50 "search_seeds" j in
      let* exec = exec_of_json j in
      if max_candidates < 1 || max_candidates > 64 then
        Error (Printf.sprintf "max_candidates out of range: %d" max_candidates)
      else if sweep_seeds < 1 || sweep_seeds > 10_000 then
        Error (Printf.sprintf "sweep_seeds out of range: %d" sweep_seeds)
      else if search_seeds < 1 || search_seeds > 10_000 then
        Error (Printf.sprintf "search_seeds out of range: %d" search_seeds)
      else Ok (Fix { target; max_candidates; sweep_seeds; search_seeds; exec })
  | k -> Error (Printf.sprintf "unknown job kind %S" k)

let request_of_json ~max_program_bytes j =
  let* op = string_mem "op" j in
  match op with
  | "submit" ->
      let* tenant = string_mem "tenant" j in
      let* id = string_mem "id" j in
      if tenant = "" then Error "tenant must be non-empty"
      else if id = "" then Error "id must be non-empty"
      else
        let* job = spec_of_json ~max_program_bytes j in
        Ok (Submit { tenant; id; job })
  | "status" -> Ok Status
  | "metrics" -> Ok Metrics
  | "spans" ->
      let* tenant = string_mem "tenant" j in
      let* id = string_mem "id" j in
      Ok (Spans { tenant; id })
  | "bundle" ->
      let* tenant = string_mem "tenant" j in
      let* id = string_mem "id" j in
      Ok (Bundle { tenant; id })
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line ~max_program_bytes line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad json: %s" e)
  | Ok j -> request_of_json ~max_program_bytes j

(* ------------------------------------------------------------------ *)
(* Request encoding (the client side)                                  *)
(* ------------------------------------------------------------------ *)

let exec_json e =
  [
    ("engine", str (Conair.Runtime.Engine.name e.engine));
    ("fuel", Json.Int e.fuel);
    ("max_retries", Json.Int e.max_retries);
  ]
  @ match e.seed with None -> [] | Some s -> [ ("seed", Json.Int s) ]

let target_json = function
  | Source src -> [ ("program", str src) ]
  | Bench { app; variant; oracle } ->
      [ ("app", str app); ("variant", str variant); ("oracle", Json.Bool oracle) ]

let spec_json = function
  | Run { target; mode; exec } ->
      (("kind", str "run") :: target_json target)
      @ [ ("mode", str mode) ]
      @ exec_json exec
  | Harden { target; mode } ->
      (("kind", str "harden") :: target_json target) @ [ ("mode", str mode) ]
  | Detect { target; original; exec } ->
      (("kind", str "detect") :: target_json target)
      @ [ ("original", Json.Bool original) ]
      @ exec_json exec
  | Minimize { log; max_tests; detect } ->
      [
        ("kind", str "minimize");
        ("log", Json.List (List.map str log));
        ("max_tests", Json.Int max_tests);
        ("detect", Json.Bool detect);
      ]
  | Fuzz { target; runs; base_seed; exec } ->
      (("kind", str "fuzz") :: target_json target)
      @ [ ("runs", Json.Int runs); ("base_seed", Json.Int base_seed) ]
      @ exec_json exec
  | Fix { target; max_candidates; sweep_seeds; search_seeds; exec } ->
      (("kind", str "fix") :: target_json target)
      @ [
          ("max_candidates", Json.Int max_candidates);
          ("sweep_seeds", Json.Int sweep_seeds);
          ("search_seeds", Json.Int search_seeds);
        ]
      @ exec_json exec

let request_json = function
  | Submit { tenant; id; job } ->
      Json.Obj
        (("op", str "submit")
         :: ("tenant", str tenant)
         :: ("id", str id)
         :: spec_json job)
  | Status -> Json.Obj [ ("op", str "status") ]
  | Metrics -> Json.Obj [ ("op", str "metrics") ]
  | Spans { tenant; id } ->
      Json.Obj [ ("op", str "spans"); ("tenant", str tenant); ("id", str id) ]
  | Bundle { tenant; id } ->
      Json.Obj [ ("op", str "bundle"); ("tenant", str tenant); ("id", str id) ]
  | Ping -> Json.Obj [ ("op", str "ping") ]
  | Shutdown -> Json.Obj [ ("op", str "shutdown") ]

let request_to_line r = Json.to_string (request_json r)
