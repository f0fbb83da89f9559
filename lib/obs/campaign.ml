(* Campaign-level aggregation over parallel fuzz workers' JSONL streams.

   Everything folds deterministically: workers are processed in
   ascending id order and each stream in record order, so the same set
   of worker files produces byte-identical reports no matter when or how
   often the coordinator restarts — the property the signature
   determinism tests pin down. *)

type finding = {
  f_signature : string;
  f_case : string;
  f_seed : int;
  f_outcome : string;
  f_log : string option;
  f_minimized : string option;
  f_run_index : int;
  f_count : int;
}

type worker = {
  w_id : int;
  w_engine : string;
  w_runs : int;
  w_checks : int;
  w_check_failures : int;
  w_findings : int;
  w_elapsed : float;
}

type t = {
  c_workers : worker list;
  c_runs : int;
  c_elapsed : float;
  c_runs_per_sec : float;
  c_engines : string list;
  c_findings : finding list;
  c_duplicates : int;
  c_curve : (int * int) list;
  c_detected : (string * int) list;
  c_agg : Aggregate.t;
  c_coverage : Coverage.t;
}

let opt_string_member key j =
  match Json.string_member key j with "" -> None | s -> Some s

let finding_of_json j =
  {
    f_signature = Json.string_member "signature" j;
    f_case = Json.string_member "case" j;
    f_seed = Json.int_member "seed" j;
    f_outcome = Json.string_member "outcome" j;
    f_log = opt_string_member "log" j;
    f_minimized = opt_string_member "minimized" j;
    f_run_index = Json.int_member "run_index" j;
    f_count = 1;
  }

(* One worker's stream, split by record type. *)
type stream = {
  s_id : int;
  s_records : Json.t list;  (* run + summary records, for Aggregate *)
  s_findings : finding list;  (* in stream order *)
  s_coverage : Json.t list;
  s_summary : Json.t option;
}

let split_stream (id, records) =
  let runs = ref [] and findings = ref [] and cov = ref [] in
  let summary = ref None in
  List.iter
    (fun r ->
      match Json.string_member "type" r with
      | "run" -> runs := r :: !runs
      | "finding" -> findings := finding_of_json r :: !findings
      | "coverage" -> cov := r :: !cov
      | "fuzz_summary" ->
          summary := Some r;
          runs := r :: !runs
      | _ -> ())
    records;
  {
    s_id = id;
    s_records = List.rev !runs;
    s_findings = List.rev !findings;
    s_coverage = List.rev !cov;
    s_summary = !summary;
  }

let worker_of_stream s =
  let runs_seen =
    List.length
      (List.filter
         (fun r -> Json.string_member "type" r = "run")
         s.s_records)
  in
  match s.s_summary with
  | None ->
      {
        w_id = s.s_id;
        w_engine = "";
        w_runs = runs_seen;
        w_checks = 0;
        w_check_failures = 0;
        w_findings = List.length s.s_findings;
        w_elapsed = 0.;
      }
  | Some j ->
      {
        w_id = s.s_id;
        w_engine = Json.string_member "engine" j;
        w_runs =
          (* total executions (probe + hardened) when the trailer has
             them; older streams only counted hardened runs *)
          (let n = Json.int_member "total_runs" j in
           let n = if n > 0 then n else Json.int_member "hardened_runs" j in
           if n > 0 then n else runs_seen);
        w_checks = Json.int_member "checks" j;
        w_check_failures = Json.int_member "failures" j;
        w_findings = List.length s.s_findings;
        w_elapsed = Json.float_member "elapsed_sec" j;
      }

(* The unique-failures-vs-runs curve. Workers run concurrently, so the
   campaign-global run count at a discovery is unknowable from the logs;
   assuming uniform worker progress, a finding at worker-local run
   ordinal r happened around campaign run r * W. The curve is exact in
   its y column (cumulative uniques in fold order) and approximate in x,
   clamped to the real total. *)
let fold_findings ~workers ~total_runs streams =
  let ordered =
    List.concat_map (fun s -> s.s_findings) streams
    |> List.stable_sort (fun a b ->
           compare
             (a.f_run_index, a.f_case, a.f_seed)
             (b.f_run_index, b.f_case, b.f_seed))
  in
  let seen = Hashtbl.create 64 in
  let uniques = ref [] and dups = ref 0 and curve = ref [ (0, 0) ] in
  let unique_count = ref 0 in
  List.iter
    (fun f ->
      (match Hashtbl.find_opt seen f.f_signature with
      | Some () -> incr dups
      | None ->
          Hashtbl.replace seen f.f_signature ();
          incr unique_count;
          uniques := f :: !uniques);
      let x = min total_runs (f.f_run_index * max 1 workers) in
      match !curve with
      | (px, py) :: rest when px = x -> curve := (x, max py !unique_count) :: rest
      | _ -> curve := (x, !unique_count) :: !curve)
    ordered;
  (* duplicate counts onto the surviving findings *)
  let counts = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Hashtbl.replace counts f.f_signature
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts f.f_signature)))
    ordered;
  let uniques =
    List.rev_map
      (fun f ->
        {
          f with
          f_count =
            Option.value ~default:1 (Hashtbl.find_opt counts f.f_signature);
        })
      !uniques
  in
  let curve =
    let c = List.rev !curve in
    if total_runs > 0 then c @ [ (total_runs, !unique_count) ] else c
  in
  (* collapse repeated trailing x (the append above may duplicate) *)
  let rec dedup = function
    | (x1, _) :: ((x2, _) :: _ as rest) when x1 = x2 -> dedup rest
    | p :: rest -> p :: dedup rest
    | [] -> []
  in
  (uniques, !dups, dedup curve)

let sum_detected streams =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.s_summary with
      | None -> ()
      | Some j -> (
          match Json.member "detected_races" j with
          | Some (Json.Obj kvs) ->
              List.iter
                (fun (addr, v) ->
                  let n =
                    match v with
                    | Json.Int n -> n
                    | Json.Float f -> int_of_float f
                    | _ -> 0
                  in
                  Hashtbl.replace tbl addr
                    (n + Option.value ~default:0 (Hashtbl.find_opt tbl addr)))
                kvs
          | _ -> ()))
    streams;
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) tbl [] |> List.sort compare

let of_workers ?elapsed (workers : (int * Json.t list) list) :
    (t, string) result =
  let streams =
    List.map split_stream
      (List.sort (fun (a, _) (b, _) -> compare a b) workers)
  in
  let ws = List.map worker_of_stream streams in
  let total_runs = List.fold_left (fun n w -> n + w.w_runs) 0 ws in
  let max_elapsed = List.fold_left (fun e w -> Float.max e w.w_elapsed) 0. ws in
  let elapsed = Option.value ~default:max_elapsed elapsed in
  let coverage = Coverage.create () in
  let rec merge_all = function
    | [] -> Ok ()
    | s :: rest ->
        let rec per_dump = function
          | [] -> merge_all rest
          | d :: ds -> (
              match Coverage.merge_json coverage d with
              | Ok () -> per_dump ds
              | Error e ->
                  Error (Printf.sprintf "worker %d coverage: %s" s.s_id e))
        in
        per_dump s.s_coverage
  in
  match merge_all streams with
  | Error e -> Error e
  | Ok () ->
      let findings, dups, curve =
        fold_findings ~workers:(List.length ws) ~total_runs streams
      in
      List.iter
        (fun f -> ignore (Coverage.note_signature coverage f.f_signature))
        findings;
      let agg =
        Aggregate.of_records (List.concat_map (fun s -> s.s_records) streams)
      in
      Ok
        {
          c_workers = ws;
          c_runs = total_runs;
          c_elapsed = elapsed;
          c_runs_per_sec =
            (if elapsed > 0. then float_of_int total_runs /. elapsed else 0.);
          c_engines =
            List.sort_uniq compare
              (List.filter_map
                 (fun w -> if w.w_engine = "" then None else Some w.w_engine)
                 ws);
          c_findings = findings;
          c_duplicates = dups;
          c_curve = curve;
          c_detected = sum_detected streams;
          c_agg = agg;
          c_coverage = coverage;
        }

let of_worker_lines ?elapsed workers =
  let rec parse_worker id acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line' = String.trim line in
        if line' = "" then parse_worker id acc (i + 1) rest
        else begin
          match Json.of_string line' with
          | Ok j -> parse_worker id (j :: acc) (i + 1) rest
          | Error e -> Error (Printf.sprintf "worker %d line %d: %s" id i e)
        end
  in
  let rec go acc = function
    | [] -> of_workers ?elapsed (List.rev acc)
    | (id, lines) :: rest -> (
        match parse_worker id [] 1 lines with
        | Ok records -> go ((id, records) :: acc) rest
        | Error e -> Error e)
  in
  go [] workers

let set_minimized t ~signature ~path =
  {
    t with
    c_findings =
      List.map
        (fun f ->
          if f.f_signature = signature then { f with f_minimized = Some path }
          else f)
        t.c_findings;
  }

let signatures_digest t =
  let sigs = List.sort compare (List.map (fun f -> f.f_signature) t.c_findings) in
  Digest.to_hex (Digest.string (String.concat "\n" sigs))

let finding_json f =
  Json.Obj
    ([
       ("signature", Json.String f.f_signature);
       ("case", Json.String f.f_case);
       ("seed", Json.Int f.f_seed);
       ("outcome", Json.String f.f_outcome);
       ("run_index", Json.Int f.f_run_index);
       ("count", Json.Int f.f_count);
     ]
    @ (match f.f_log with
      | Some p -> [ ("log", Json.String p) ]
      | None -> [])
    @
    match f.f_minimized with
    | Some p -> [ ("minimized", Json.String p) ]
    | None -> [])

let to_json t : Json.t =
  Json.Obj
    [
      ("type", Json.String "campaign_report");
      ( "workers",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("worker", Json.Int w.w_id);
                   ("engine", Json.String w.w_engine);
                   ("runs", Json.Int w.w_runs);
                   ("checks", Json.Int w.w_checks);
                   ("check_failures", Json.Int w.w_check_failures);
                   ("findings", Json.Int w.w_findings);
                   ("elapsed_sec", Json.Float w.w_elapsed);
                 ])
             t.c_workers) );
      ("runs", Json.Int t.c_runs);
      ("elapsed_sec", Json.Float t.c_elapsed);
      ("runs_per_sec", Json.Float t.c_runs_per_sec);
      ("engines", Json.List (List.map (fun e -> Json.String e) t.c_engines));
      ("unique_failures", Json.Int (List.length t.c_findings));
      ("duplicates", Json.Int t.c_duplicates);
      ("signatures_md5", Json.String (signatures_digest t));
      ("findings", Json.List (List.map finding_json t.c_findings));
      ( "curve",
        Json.List
          (List.map
             (fun (x, y) -> Json.List [ Json.Int x; Json.Int y ])
             t.c_curve) );
      ( "detected_races",
        Json.Obj (List.map (fun (a, n) -> (a, Json.Int n)) t.c_detected) );
      ("aggregate", Aggregate.to_json t.c_agg);
      ("coverage", Coverage.to_json t.c_coverage);
    ]

let render t : string list =
  [
    Printf.sprintf "campaign: %d runs over %d workers%s" t.c_runs
      (List.length t.c_workers)
      (match t.c_engines with
      | [] -> ""
      | es -> " (" ^ String.concat ", " es ^ ")");
    Printf.sprintf "throughput: %.1f runs/sec over %.2fs" t.c_runs_per_sec
      t.c_elapsed;
    Printf.sprintf "failures: %d unique (%d duplicates deduped), md5 %s"
      (List.length t.c_findings) t.c_duplicates
      (String.sub (signatures_digest t) 0 12);
  ]
  @ List.map
      (fun f ->
        Printf.sprintf "  %s %s seed %d ×%d%s"
          (String.sub f.f_signature 0 12)
          f.f_case f.f_seed f.f_count
          (match f.f_minimized with
          | Some p -> " -> " ^ p
          | None -> (
              match f.f_log with Some p -> " @ " ^ p | None -> "")))
      t.c_findings
  @ (match t.c_detected with
    | [] -> []
    | d ->
        Printf.sprintf "detected races on %d addresses" (List.length d)
        :: List.map
             (fun (a, n) -> Printf.sprintf "  %s: %d schedules" a n)
             d)
  @ Printf.sprintf "coverage: %s"
      (String.concat ", "
         (List.map
            (fun app ->
              Printf.sprintf "%s %d points / %d edges" app
                (List.length (Coverage.points t.c_coverage ~app))
                (List.length (Coverage.edges t.c_coverage ~app)))
            (Coverage.apps t.c_coverage)))
    :: List.map (fun l -> "aggregate: " ^ l) (Aggregate.render t.c_agg)

let metrics ?into t =
  let reg = match into with Some r -> r | None -> Metrics.create () in
  let c name help v =
    let c = Metrics.counter ~help reg name in
    let cur = Metrics.counter_value c in
    if v > cur then Metrics.inc ~by:(v - cur) c
  in
  let g name help v = Metrics.set (Metrics.gauge ~help reg name) v in
  c "conair_campaign_runs_total" "hardened runs executed" t.c_runs;
  c "conair_campaign_findings_total" "failing runs found (duplicates included)"
    (t.c_duplicates + List.length t.c_findings);
  c "conair_campaign_unique_failures" "deduped interleaving signatures"
    (List.length t.c_findings);
  c "conair_campaign_duplicates_total" "findings deduped by signature"
    t.c_duplicates;
  c "conair_campaign_recovery_runs_total" "runs with >= 1 recovery episode"
    t.c_agg.Aggregate.g_recovery_runs;
  g "conair_campaign_workers" "worker streams folded"
    (float_of_int (List.length t.c_workers));
  g "conair_campaign_runs_per_sec" "campaign throughput" t.c_runs_per_sec;
  List.iter
    (fun app ->
      Metrics.set
        (Metrics.gauge ~help:"schedulable points exercised"
           ~labels:[ ("app", app) ] reg "conair_campaign_coverage_points")
        (float_of_int (List.length (Coverage.points t.c_coverage ~app)));
      Metrics.set
        (Metrics.gauge ~help:"cross-thread edge shapes exercised"
           ~labels:[ ("app", app) ] reg "conair_campaign_coverage_edges")
        (float_of_int (List.length (Coverage.edges t.c_coverage ~app))))
    (Coverage.apps t.c_coverage);
  reg

let parse_seed_range s =
  let usage = "expected LO..HI (two integers, HI >= LO), e.g. --seeds 0..99" in
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && (i + 2 >= String.length s || s.[i + 2] <> '.') -> (
      let lo = String.sub s 0 i in
      let hi = String.sub s (i + 2) (String.length s - i - 2) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when hi >= lo -> Ok (lo, hi)
      | Some lo, Some hi ->
          Error
            (Printf.sprintf "--seeds %d..%d is empty (HI < LO): %s" lo hi usage)
      | _ -> Error (Printf.sprintf "--seeds %S: %s" s usage))
  | _ -> Error (Printf.sprintf "--seeds %S: %s" s usage)

let bench_json ~jobs ~iterations (engines : (string * t) list) : Json.t =
  let digests = List.map (fun (_, t) -> signatures_digest t) engines in
  let agreement =
    match digests with [] -> true | d :: rest -> List.for_all (( = ) d) rest
  in
  Json.Obj
    [
      ("type", Json.String "bench_fuzz");
      ("iterations", Json.Int iterations);
      ("jobs", Json.Int jobs);
      ( "engines",
        Json.Obj
          (List.map
             (fun (name, t) ->
               ( name,
                 Json.Obj
                   [
                     ("runs", Json.Int t.c_runs);
                     ("elapsed_sec", Json.Float t.c_elapsed);
                     ("runs_per_sec", Json.Float t.c_runs_per_sec);
                     ("unique_signatures", Json.Int (List.length t.c_findings));
                     ( "findings",
                       Json.Int (t.c_duplicates + List.length t.c_findings) );
                     ("signatures_md5", Json.String (signatures_digest t));
                     ( "curve",
                       Json.List
                         (List.map
                            (fun (x, y) -> Json.List [ Json.Int x; Json.Int y ])
                            t.c_curve) );
                   ] ))
             engines) );
      ("signature_agreement", Json.Bool agreement);
    ]
