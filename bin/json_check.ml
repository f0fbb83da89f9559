(* json_check: validate telemetry files emitted by conair_cli.

   For each FILE argument:
   - *.sched.jsonl — a schedule log, validated by its codec
                   ([Replay.Log.load]): the file must decode — which
                   checks record order, chunk counts and the preemption
                   window — and re-encoding it must reproduce the file
                   byte for byte;
   - *.jsonl     — every non-empty line must parse as a JSON object;
   - *.collapsed — collapsed-stack flamegraph lines: every non-empty
                   line is "frame;frame;... N" with non-empty frames
                   and a positive count, and there is at least one;
   - BENCH_interp.json — the interpreter bench document: "micro" and
                   "sweep" sections with per-engine timing columns and
                   cross-engine ratios, all positive and mutually
                   consistent; additionally two performance gates — the
                   block engine's micro steps/s must be at least 3x the
                   committed fast-engine baseline, and the recorder-on
                   (flight) micro must be within 5% of recorder-off;
   - BENCH_fuzz.json — the campaign bench document written by
                   `conair_fuzz --bench`: per-engine runs/sec, signature
                   digests and growth curves, with the differential gate
                   that every engine's digest is identical;
   - *.prom      — Prometheus text exposition: every non-comment line
                   is "name{labels} value" with a parsable metric name
                   and a finite numeric value, and at least one sample
                   and one # HELP/# TYPE comment are present;
   - status.json — the serve daemon's status document: type
                   "serve_status", a non-negative uptime, pool stats
                   and a well-formed per-tenant table;
   - *_fix.json  — the fix synthesizer's report: type "fix_report",
                   detection summary, candidate table with the three
                   validation gates, and a summary whose survivor
                   count matches the table (every survivor passed all
                   gates and carries a cost);
   - *.bundle.json — a flight-recorder diagnostic bundle, validated by
                   its codec ([Obs.Flight.load]) the same way: decode
                   (embedded-program MD5, tail window and length,
                   preemption ordinals, episode spans), then re-encode
                   byte for byte;
   - *.json      — the whole file must parse; if the value carries a
                   "traceEvents" member it must be a list (Chrome trace
                   format sanity, as loaded by Perfetto).

   The first form `json_check --same A B` instead asserts the two
   files are byte-identical — the @serve alias's CLI-equivalence gate.

   Exit 0 when every file validates, 1 otherwise. Used by the @smoke,
   @perf, @replay, @fuzz, @flight, @serve, @detect and @fix aliases to
   assert the emitted telemetry is well-formed. *)

module Json = Conair.Obs.Json

let errors = ref 0

let fail file msg =
  incr errors;
  Printf.eprintf "json_check: %s: %s\n" file msg

let read_file file =
  In_channel.with_open_text file In_channel.input_all

let check_jsonl file =
  let lines = String.split_on_char '\n' (read_file file) in
  let n = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        incr n;
        match Json.of_string line with
        | Ok (Json.Obj _) -> ()
        | Ok _ -> fail file (Printf.sprintf "line %d: not a JSON object" (i + 1))
        | Error e -> fail file (Printf.sprintf "line %d: %s" (i + 1) e)
      end)
    lines;
  if !n = 0 then fail file "no JSON lines"
  else Printf.printf "json_check: %s: %d JSONL records ok\n" file !n

let check_collapsed file =
  let lines = String.split_on_char '\n' (read_file file) in
  let n = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        incr n;
        let bad msg = fail file (Printf.sprintf "line %d: %s" (i + 1) msg) in
        match String.rindex_opt line ' ' with
        | None -> bad "no sample count"
        | Some sp -> (
            let frames = String.sub line 0 sp in
            let count =
              String.sub line (sp + 1) (String.length line - sp - 1)
            in
            match int_of_string_opt count with
            | None -> bad (Printf.sprintf "count %S is not an integer" count)
            | Some c when c <= 0 ->
                bad (Printf.sprintf "count %d is not positive" c)
            | Some _ ->
                if
                  List.exists
                    (fun f -> f = "")
                    (String.split_on_char ';' frames)
                then bad "empty stack frame")
      end)
    lines;
  if !n = 0 then fail file "no collapsed-stack lines"
  else Printf.printf "json_check: %s: %d collapsed-stack lines ok\n" file !n

(* Schedule logs and flight bundles have one schema: their library
   codec. Decoding enforces every invariant (record order, chunk counts,
   preemption windows, the bundle's tail window and embedded-program
   MD5); re-encoding must then reproduce the file byte for byte, so
   nothing the codec would drop or normalize can hide in the file. *)
let check_roundtrip file ~decode ~encode ~describe =
  let text = read_file file in
  match decode file with
  | Error e -> fail file e
  | Ok v ->
      if encode v <> text then
        fail file "re-encoding the decoded value does not reproduce the file"
      else Printf.printf "json_check: %s: %s\n" file (describe v)

let check_sched file =
  let module Log = Conair.Replay.Log in
  check_roundtrip file ~decode:Log.load
    ~encode:Log.to_string
    ~describe:(fun log ->
      Printf.sprintf "schedule log with %d decisions ok"
        (Array.length log.Log.decisions))

(* The micro fast-engine throughput recorded in BENCH_interp.json when
   the block-compiled engine landed. The @perf gate measures the block
   engine against this committed figure rather than the same run's fast
   column so a uniformly slow or fast CI machine cannot mask a real
   block-engine regression behind a stable-looking ratio. *)
let fast_micro_baseline_steps_per_sec = 23_548_530.

let check_bench_interp file =
  let before = !errors in
  match Json.of_string (read_file file) with
  | Error e -> fail file e
  | Ok j ->
      let section name = Json.member name j in
      let number sec_name sec field =
        match Json.member field sec with
        | Some (Json.Float f) when f > 0. -> Some f
        | Some (Json.Int n) when n > 0 -> Some (float n)
        | Some _ ->
            fail file
              (Printf.sprintf "%s.%s is not a positive number" sec_name field);
            None
        | None ->
            fail file (Printf.sprintf "%s.%s is missing" sec_name field);
            None
      in
      let check_section name fields =
        match section name with
        | Some (Json.Obj _ as sec) ->
            List.iter (fun f -> ignore (number name sec f)) fields;
            Some sec
        | Some _ ->
            fail file (Printf.sprintf "%S is not an object" name);
            None
        | None ->
            fail file (Printf.sprintf "%S section is missing" name);
            None
      in
      let per_engine =
        [
          "ref_seconds";
          "fast_seconds";
          "block_seconds";
          "speedup";
          "fast_vs_ref";
          "block_vs_ref";
          "block_vs_fast";
        ]
      in
      let micro =
        check_section "micro"
          ([
             "steps";
             "ref_steps_per_sec";
             "fast_steps_per_sec";
             "block_steps_per_sec";
             "block_flight_seconds";
             "block_flight_steps_per_sec";
             "flight_vs_block";
           ]
          @ per_engine)
      in
      ignore (check_section "sweep" ("runs" :: per_engine));
      (match micro with
      | Some sec -> (
          (match
             ( number "micro" sec "fast_steps_per_sec",
               number "micro" sec "block_steps_per_sec",
               number "micro" sec "block_vs_fast" )
           with
          | Some fast, Some block, Some ratio
            when abs_float ((block /. fast /. ratio) -. 1.) > 1e-6 ->
              fail file
                (Printf.sprintf
                   "micro.block_vs_fast %.4f disagrees with \
                    block/fast steps/s %.4f"
                   ratio (block /. fast))
          | _ -> ());
          (match
             ( number "micro" sec "block_steps_per_sec",
               number "micro" sec "block_flight_steps_per_sec",
               number "micro" sec "flight_vs_block" )
           with
          | Some block, Some flight, Some ratio ->
              if abs_float ((flight /. block /. ratio) -. 1.) > 1e-6 then
                fail file
                  (Printf.sprintf
                     "micro.flight_vs_block %.4f disagrees with \
                      flight/block steps/s %.4f"
                     ratio (flight /. block));
              (* the tentpole's overhead gate: the always-on flight
                 recorder must cost the block engine at most 5% *)
              if flight < 0.95 *. block then
                fail file
                  (Printf.sprintf
                     "flight recorder overhead regressed: recorder-on micro \
                      %.0f steps/s is below 95%% of recorder-off (%.0f)"
                     flight (0.95 *. block))
          | _ -> ());
          match number "micro" sec "block_steps_per_sec" with
          | Some block when block < 3. *. fast_micro_baseline_steps_per_sec ->
              fail file
                (Printf.sprintf
                   "block engine regressed: micro %.0f steps/s is below 3x \
                    the committed fast-engine baseline (%.0f)"
                   block
                   (3. *. fast_micro_baseline_steps_per_sec))
          | _ -> ())
      | None -> ());
      if !errors = before then
        Printf.printf
          "json_check: %s: interp bench ok (block micro >= 3x committed fast \
           baseline; flight recorder within 5%% of recorder-off)\n"
          file

(* BENCH_fuzz.json: the campaign bench document written by
   `conair_fuzz --bench` — one sharded campaign per engine. Shape checks
   plus the differential gate: every engine's signature digest must be
   identical and "signature_agreement" must say so. *)
let check_bench_fuzz file =
  let before = !errors in
  match Json.of_string (read_file file) with
  | Error e -> fail file e
  | Ok j ->
      (match Json.member "type" j with
      | Some (Json.String "bench_fuzz") -> ()
      | _ -> fail file "\"type\" is not \"bench_fuzz\"");
      let pos_int name parent ctx =
        match Json.member name parent with
        | Some (Json.Int n) when n > 0 -> Some n
        | _ ->
            fail file (Printf.sprintf "%s%s is not a positive integer" ctx name);
            None
      in
      let nonneg_int name parent ctx =
        match Json.member name parent with
        | Some (Json.Int n) when n >= 0 -> Some n
        | _ ->
            fail file
              (Printf.sprintf "%s%s is not a non-negative integer" ctx name);
            None
      in
      ignore (pos_int "iterations" j "");
      ignore (pos_int "jobs" j "");
      let digests = ref [] in
      (match Json.member "engines" j with
      | Some (Json.Obj engines) ->
          List.iter
            (fun expected ->
              if not (List.mem_assoc expected engines) then
                fail file (Printf.sprintf "engines.%s is missing" expected))
            [ "ref"; "fast"; "block" ];
          List.iter
            (fun (name, e) ->
              let ctx = Printf.sprintf "engines.%s." name in
              ignore (pos_int "runs" e ctx);
              (match Json.member "runs_per_sec" e with
              | Some (Json.Float f) when f > 0. -> ()
              | Some (Json.Int n) when n > 0 -> ()
              | _ ->
                  fail file (ctx ^ "runs_per_sec is not a positive number"));
              let uniq = nonneg_int "unique_signatures" e ctx in
              let found = nonneg_int "findings" e ctx in
              (match (uniq, found) with
              | Some u, Some f when f < u ->
                  fail file
                    (Printf.sprintf "%sfindings %d < unique_signatures %d" ctx
                       f u)
              | _ -> ());
              (match Json.member "signatures_md5" e with
              | Some (Json.String d)
                when String.length d = 32
                     && String.for_all
                          (function
                            | '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                          d ->
                  digests := d :: !digests
              | _ -> fail file (ctx ^ "signatures_md5 is not an MD5 digest"));
              match Json.member "curve" e with
              | Some (Json.List pts) ->
                  let last = ref (-1, -1) in
                  List.iter
                    (fun pt ->
                      match pt with
                      | Json.List [ Json.Int x; Json.Int y ] ->
                          let px, py = !last in
                          if x < px || y < py then
                            fail file (ctx ^ "curve is not nondecreasing");
                          last := (x, y)
                      | _ -> fail file (ctx ^ "curve point is not [runs, uniques]"))
                    pts;
                  (match (uniq, !last) with
                  | Some u, (_, y) when y <> u ->
                      fail file
                        (Printf.sprintf
                           "%scurve ends at %d uniques, unique_signatures \
                            says %d"
                           ctx y u)
                  | _ -> ())
              | _ -> fail file (ctx ^ "curve is not a list"))
            engines
      | _ -> fail file "\"engines\" is not an object");
      (match List.sort_uniq compare !digests with
      | [] | [ _ ] -> ()
      | ds ->
          fail file
            (Printf.sprintf "engines disagree on signatures (%d digests)"
               (List.length ds)));
      (match Json.member "signature_agreement" j with
      | Some (Json.Bool true) -> ()
      | Some (Json.Bool false) ->
          fail file "signature_agreement is false: engines diverged"
      | _ -> fail file "\"signature_agreement\" is not a boolean");
      if !errors = before then
        Printf.printf
          "json_check: %s: fuzz bench ok (signatures agree across engines)\n"
          file

let check_json file =
  match Json.of_string (read_file file) with
  | Error e -> fail file e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Printf.printf "json_check: %s: chrome trace with %d events ok\n" file
            (List.length evs)
      | Some _ -> fail file "\"traceEvents\" is not a list"
      | None -> Printf.printf "json_check: %s: json ok\n" file)

(* Prometheus text exposition format, as written by
   [Obs.Metrics.to_prometheus]: "# HELP"/"# TYPE" comments plus one
   sample per line — a metric name (optionally with {label="..."}
   pairs), whitespace, a finite number. *)
let check_prom file =
  let before = !errors in
  let lines = String.split_on_char '\n' (read_file file) in
  let samples = ref 0 and comments = ref 0 in
  let name_ok s =
    s <> ""
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         s
  in
  List.iteri
    (fun i line ->
      let bad msg = fail file (Printf.sprintf "line %d: %s" (i + 1) msg) in
      let line = String.trim line in
      if line = "" then ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        incr comments;
        if
          not
            (String.starts_with ~prefix:"# HELP " line
            || String.starts_with ~prefix:"# TYPE " line)
        then bad "comment is neither # HELP nor # TYPE"
      end
      else begin
        incr samples;
        match String.rindex_opt line ' ' with
        | None -> bad "sample line has no value"
        | Some sp -> (
            let name_part = String.sub line 0 sp in
            let value =
              String.sub line (sp + 1) (String.length line - sp - 1)
            in
            (match float_of_string_opt value with
            | Some v when Float.is_finite v -> ()
            | Some _ -> bad (Printf.sprintf "value %S is not finite" value)
            | None -> bad (Printf.sprintf "value %S is not a number" value));
            let name =
              match String.index_opt name_part '{' with
              | None -> name_part
              | Some b ->
                  if not (String.ends_with ~suffix:"}" name_part) then
                    bad "unterminated label set";
                  String.sub name_part 0 b
            in
            if not (name_ok (String.trim name)) then
              bad (Printf.sprintf "bad metric name %S" name))
      end)
    lines;
  if !samples = 0 then fail file "no samples"
  else if !comments = 0 then fail file "no # HELP/# TYPE comments"
  else if !errors = before then
    Printf.printf "json_check: %s: %d prometheus samples ok\n" file !samples

(* The serve daemon's status document. *)
let check_serve_status file =
  let before = !errors in
  match Json.of_string (read_file file) with
  | Error e -> fail file e
  | Ok j ->
      (match Json.member "type" j with
      | Some (Json.String "serve_status") -> ()
      | _ -> fail file "\"type\" is not \"serve_status\"");
      (match Json.member "uptime_sec" j with
      | Some (Json.Float f) when f >= 0. -> ()
      | Some (Json.Int n) when n >= 0 -> ()
      | _ -> fail file "\"uptime_sec\" is not a non-negative number");
      (match Json.member "pool" j with
      | Some (Json.Obj _ as pool) ->
          List.iter
            (fun k ->
              match Json.member k pool with
              | Some (Json.Int n) when n >= 0 -> ()
              | _ ->
                  fail file
                    (Printf.sprintf "pool.%s is not a non-negative integer" k))
            [ "workers"; "pending"; "inflight" ]
      | _ -> fail file "\"pool\" is not an object");
      (match Json.member "tenants" j with
      | Some (Json.List ts) ->
          List.iter
            (fun t ->
              let ctx =
                match Json.member "tenant" t with
                | Some (Json.String s) -> s
                | _ ->
                    fail file "tenant row without a \"tenant\" name";
                    "?"
              in
              List.iter
                (fun k ->
                  match Json.member k t with
                  | Some (Json.Int n) when n >= 0 -> ()
                  | _ ->
                      fail file
                        (Printf.sprintf
                           "tenant %s: %s is not a non-negative integer" ctx k))
                [ "submitted"; "completed"; "failed"; "queued" ];
              match Json.member "aggregate" t with
              | Some (Json.Obj _) -> ()
              | _ -> fail file (Printf.sprintf "tenant %s: no aggregate" ctx))
            ts
      | _ -> fail file "\"tenants\" is not a list");
      if !errors = before then
        Printf.printf "json_check: %s: serve status ok\n" file

(* The fix synthesizer's report (conair_cli fix --json, or a serve fix
   job): type "fix_report", a detection summary, the candidate table —
   each candidate carrying the three gates — and a consistent summary.
   Semantic gates: a survivor must have passed every gate and carry a
   cost; survivors must not outnumber candidates. *)
let check_fix_report file =
  let before = !errors in
  match Json.of_string (read_file file) with
  | Error e -> fail file e
  | Ok j ->
      (match Json.member "type" j with
      | Some (Json.String "fix_report") -> ()
      | _ -> fail file "\"type\" is not \"fix_report\"");
      List.iter
        (fun k ->
          match Json.member k j with
          | Some (Json.String s) when s <> "" -> ()
          | _ -> fail file (Printf.sprintf "%S is not a non-empty string" k))
        [ "app"; "variant" ];
      (match Json.member "detection" j with
      | Some (Json.Obj _ as d) ->
          List.iter
            (fun k ->
              match Json.member k d with
              | Some (Json.Int n) when n >= 0 -> ()
              | _ ->
                  fail file
                    (Printf.sprintf
                       "detection.%s is not a non-negative integer" k))
            [ "races"; "lockset_warnings"; "deadlock_cycles" ]
      | _ -> fail file "\"detection\" is not an object");
      let survivors_seen = ref 0 in
      (match Json.member "candidates" j with
      | Some (Json.List cs) ->
          List.iteri
            (fun i c ->
              let ctx = Printf.sprintf "candidates[%d]." i in
              (match Json.member "id" c with
              | Some (Json.String s) when s <> "" -> ()
              | _ -> fail file (ctx ^ "id is not a non-empty string"));
              let survived =
                match Json.member "survived" c with
                | Some (Json.Bool b) -> b
                | _ ->
                    fail file (ctx ^ "survived is not a boolean");
                    false
              in
              if survived then incr survivors_seen;
              let gates_passed = ref true in
              (match Json.member "gates" c with
              | Some (Json.List gs) when List.length gs = 3 ->
                  List.iter
                    (fun g ->
                      match (Json.member "gate" g, Json.member "passed" g) with
                      | Some (Json.String _), Some (Json.Bool p) ->
                          if not p then gates_passed := false
                      | _ -> fail file (ctx ^ "malformed gate entry"))
                    gs
              | _ -> fail file (ctx ^ "gates is not a 3-entry list"));
              if survived && not !gates_passed then
                fail file (ctx ^ "survived but a gate failed");
              if survived then
                match Json.member "cost" c with
                | Some (Json.Obj _) -> ()
                | _ -> fail file (ctx ^ "survivor without a cost object"))
            cs
      | _ -> fail file "\"candidates\" is not a list");
      (match Json.member "summary" j with
      | Some (Json.Obj _ as s) -> (
          match (Json.member "candidates" s, Json.member "survivors" s) with
          | Some (Json.Int c), Some (Json.Int sv) ->
              if sv > c then
                fail file
                  (Printf.sprintf "summary says %d survivors of %d candidates"
                     sv c);
              if sv <> !survivors_seen then
                fail file
                  (Printf.sprintf
                     "summary says %d survivors, candidate table carries %d"
                     sv !survivors_seen)
          | _ -> fail file "summary without candidates/survivors counts")
      | _ -> fail file "\"summary\" is not an object");
      if !errors = before then
        Printf.printf "json_check: %s: fix report ok (%d survivors)\n" file
          !survivors_seen

let check_flight_bundle file =
  let module Flight = Conair.Obs.Flight in
  check_roundtrip file ~decode:Flight.load
    ~encode:Flight.to_string
    ~describe:(fun b ->
      Printf.sprintf "flight bundle ok (%d of %d decisions retained)"
        (Array.length b.Flight.fb_tail)
        b.Flight.fb_tail_total)

(* --same A B: byte equality, reporting the first differing line. *)
let check_same a b =
  match (Sys.file_exists a, Sys.file_exists b) with
  | false, _ -> fail a "no such file"
  | _, false -> fail b "no such file"
  | true, true ->
      let ca = read_file a and cb = read_file b in
      if ca = cb then
        Printf.printf "json_check: %s and %s are byte-identical (%d bytes)\n"
          a b (String.length ca)
      else begin
        let la = String.split_on_char '\n' ca
        and lb = String.split_on_char '\n' cb in
        let rec first_diff i = function
          | x :: xs, y :: ys ->
              if x <> y then Some (i, x, y) else first_diff (i + 1) (xs, ys)
          | [], y :: _ -> Some (i, "<eof>", y)
          | x :: _, [] -> Some (i, x, "<eof>")
          | [], [] -> None
        in
        match first_diff 1 (la, lb) with
        | Some (i, x, y) ->
            fail a
              (Printf.sprintf "differs from %s at line %d:\n  %s: %s\n  %s: %s"
                 b i a x b y)
        | None -> fail a (Printf.sprintf "differs from %s (lengths)" b)
      end

let check_file file =
  if not (Sys.file_exists file) then fail file "no such file"
  else if Filename.basename file = "BENCH_interp.json" then
    check_bench_interp file
  else if Filename.basename file = "BENCH_fuzz.json" then
    check_bench_fuzz file
  else if Filename.basename file = "status.json" then
    check_serve_status file
  else if Filename.check_suffix file "_fix.json" then check_fix_report file
  else if Filename.check_suffix file ".bundle.json" then
    check_flight_bundle file
  else if Filename.check_suffix file ".sched.jsonl" then check_sched file
  else if Filename.check_suffix file ".jsonl" then check_jsonl file
  else if Filename.check_suffix file ".collapsed" then check_collapsed file
  else if Filename.check_suffix file ".prom" then check_prom file
  else check_json file

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] ->
      prerr_endline
        "usage: json_check FILE.jsonl FILE.json ... | json_check --same A B";
      exit 2
  | [ "--same"; a; b ] -> check_same a b
  | "--same" :: _ ->
      prerr_endline "usage: json_check --same A B";
      exit 2
  | files -> List.iter check_file files);
  exit (if !errors = 0 then 0 else 1)
