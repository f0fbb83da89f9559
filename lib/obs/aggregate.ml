(* Cross-run aggregation: fold a JSONL stream of per-run records — the
   fuzzer's [--jsonl] output — into percentile summaries of recovery cost
   and a per-site waste table.

   The input contract is one JSON object per line. Lines whose ["type"]
   is not ["run"] (the meta header, the fuzzer's trailing summary) are
   skipped; a line that does not parse is an error, because a corrupt log
   should fail loudly, not skew percentiles. A run record carries:

   {v
   {"type":"run","case":...,"seed":...,"outcome":"success","steps":N,
    "episodes":N,"retries":N,"max_episode_steps":N,
    "sites":[{"site":N,"episodes":N,"retries":N,"steps":N}, ...]}
   v}

   [run_record] is the encoder of that record.

   Percentiles are nearest-rank (the value at ceil(p/100 * n), 1-based)
   over the recovery runs — runs with at least one recovery episode. *)

open Conair_runtime

type site_agg = {
  g_site : int;
  g_episodes : int;
  g_retries : int;
  g_steps : int;  (** recovery steps attributed to this site, summed *)
  g_ratio : float;  (** [g_steps] / total steps of all runs *)
}

type t = {
  g_runs : int;
  g_outcomes : (string * int) list;  (** outcome tag -> count, sorted *)
  g_recovery_runs : int;  (** runs with at least one episode *)
  g_total_steps : int;
  g_p50_recovery_steps : int;
  g_p95_recovery_steps : int;
  g_max_recovery_steps : int;
  g_p50_retries : int;
  g_p95_retries : int;
  g_max_retries : int;
  g_sites : site_agg list;  (** ascending site id *)
  g_engines : string list;
  g_elapsed : float;
  g_runs_per_sec : float;
}

(** Nearest-rank percentile of an unsorted list; [0] on the empty list.
    [p] in [0, 100]. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0
  | sorted ->
      (* A NaN or out-of-range p must not turn into a wild List.nth
         index: treat NaN as 0 and clamp to [0, 100]. *)
      let p = if Float.is_nan p then 0. else Float.max 0. (Float.min 100. p) in
      let n = List.length sorted in
      let rank =
        max 1 (int_of_float (ceil (p /. 100. *. float_of_int n)))
      in
      List.nth sorted (min n rank - 1)

(* --- the run record: encoder -------------------------------------- *)

(* The one encoder of the record this module folds, shared by the
   fuzzer's JSONL stream and the serve daemon's jobs, so a fuzz log and
   a tenant's job history aggregate identically. *)

let outcome_tag : Outcome.t -> string = function
  | Outcome.Success -> "success"
  | Outcome.Failed _ -> "failed"
  | Outcome.Hang _ -> "hang"
  | Outcome.Fuel_exhausted _ -> "fuel-exhausted"

let site_rollup (s : Stats.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Stats.episode) ->
      let eps, rts, stp =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl e.ep_site_id)
      in
      Hashtbl.replace tbl e.ep_site_id
        (eps + 1, rts + e.ep_retries, stp + Stats.episode_duration e))
    (Stats.episodes_chronological s);
  Hashtbl.fold (fun id v acc -> (id, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let run_record ~case ~seed ~outcome (stats : Stats.t) =
  Json.Obj
    [
      ("type", Json.String "run");
      ("case", Json.String case);
      ("seed", Json.Int seed);
      ("outcome", Json.String (outcome_tag outcome));
      ("steps", Json.Int stats.steps);
      ("instrs", Json.Int stats.instrs);
      ("rollbacks", Json.Int stats.rollbacks);
      ( "episodes",
        Json.Int (List.length (Stats.episodes_chronological stats)) );
      ("retries", Json.Int (Stats.total_retries stats));
      ("max_episode_steps", Json.Int (Stats.max_recovery_time stats));
      ( "sites",
        Json.List
          (List.map
             (fun (id, (eps, rts, stp)) ->
               Json.Obj
                 [
                   ("site", Json.Int id);
                   ("episodes", Json.Int eps);
                   ("retries", Json.Int rts);
                   ("steps", Json.Int stp);
                 ])
             (site_rollup stats)) );
    ]

(* --- the run record: decoder (fold) ------------------------------- *)

let is_run j = Json.string_member "type" j = "run"

(* fuzz_summary trailers carry the stream-level facts the run records do
   not repeat: which engine executed and the wall-clock the whole stream
   took. Elapsed folds by max — parallel workers' streams overlap in
   time, so the longest stream is the campaign's wall-clock. *)
let summary_facts records =
  let engines = ref [] and elapsed = ref 0. in
  List.iter
    (fun r ->
      if Json.string_member "type" r = "fuzz_summary" then begin
        let e = Json.string_member "engine" r in
        if e <> "" && not (List.mem e !engines) then engines := e :: !engines;
        (* A corrupt summary (NaN/inf/negative elapsed) must not poison
           the throughput figure; only positive finite values fold. *)
        let el = Json.float_member "elapsed_sec" r in
        if Float.is_finite el && el > 0. then
          elapsed := Float.max !elapsed el
      end)
    records;
  (List.sort compare !engines, !elapsed)

let of_records (records : Json.t list) : t =
  let engines, elapsed = summary_facts records in
  let runs = List.filter is_run records in
  let outcomes = Hashtbl.create 8 in
  let sites = Hashtbl.create 16 in
  let total_steps = ref 0 in
  let recovery_steps = ref [] in
  let retries = ref [] in
  let recovery_runs = ref 0 in
  List.iter
    (fun r ->
      let tag = Json.string_member "outcome" r in
      let tag = if tag = "" then "unknown" else tag in
      Hashtbl.replace outcomes tag
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes tag));
      total_steps := !total_steps + Json.int_member "steps" r;
      if Json.int_member "episodes" r > 0 then begin
        incr recovery_runs;
        recovery_steps :=
          Json.int_member "max_episode_steps" r :: !recovery_steps;
        retries := Json.int_member "retries" r :: !retries
      end;
      match Json.member "sites" r with
      | Some (Json.List site_objs) ->
          List.iter
            (fun s ->
              let id = Json.int_member "site" s in
              let eps, rts, stp =
                Option.value ~default:(0, 0, 0) (Hashtbl.find_opt sites id)
              in
              Hashtbl.replace sites id
                ( eps + Json.int_member "episodes" s,
                  rts + Json.int_member "retries" s,
                  stp + Json.int_member "steps" s ))
            site_objs
      | _ -> ())
    runs;
  let site_aggs =
    Hashtbl.fold
      (fun id (eps, rts, stp) acc ->
        {
          g_site = id;
          g_episodes = eps;
          g_retries = rts;
          g_steps = stp;
          g_ratio =
            (if !total_steps = 0 then 0.
             else float_of_int stp /. float_of_int !total_steps);
        }
        :: acc)
      sites []
    |> List.sort (fun a b -> compare a.g_site b.g_site)
  in
  {
    g_runs = List.length runs;
    g_outcomes =
      Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) outcomes []
      |> List.sort compare;
    g_recovery_runs = !recovery_runs;
    g_total_steps = !total_steps;
    g_p50_recovery_steps = percentile !recovery_steps 50.;
    g_p95_recovery_steps = percentile !recovery_steps 95.;
    g_max_recovery_steps = percentile !recovery_steps 100.;
    g_p50_retries = percentile !retries 50.;
    g_p95_retries = percentile !retries 95.;
    g_max_retries = percentile !retries 100.;
    g_sites = site_aggs;
    g_engines = engines;
    g_elapsed = elapsed;
    g_runs_per_sec =
      (* zero runs or unknown/zero elapsed both mean "no throughput
         figure", not a division — the JSON stays finite either way *)
      (if runs <> [] && elapsed > 0. then
         float_of_int (List.length runs) /. elapsed
       else 0.);
  }

let of_lines (lines : string list) : (t, string) result =
  let rec parse acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line' = String.trim line in
        if line' = "" then parse acc (i + 1) rest
        else begin
          match Json.of_string line' with
          | Ok j -> parse (j :: acc) (i + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e)
        end
  in
  Result.map of_records (parse [] 1 lines)

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("type", Json.String "aggregate");
      ("runs", Json.Int t.g_runs);
      ( "outcomes",
        Json.Obj (List.map (fun (tag, n) -> (tag, Json.Int n)) t.g_outcomes) );
      ("recovery_runs", Json.Int t.g_recovery_runs);
      ("total_steps", Json.Int t.g_total_steps);
      ( "engines",
        Json.List (List.map (fun e -> Json.String e) t.g_engines) );
      ("elapsed_sec", Json.Float t.g_elapsed);
      ("runs_per_sec", Json.Float t.g_runs_per_sec);
      ( "recovery_steps",
        Json.Obj
          [
            ("p50", Json.Int t.g_p50_recovery_steps);
            ("p95", Json.Int t.g_p95_recovery_steps);
            ("max", Json.Int t.g_max_recovery_steps);
          ] );
      ( "retries",
        Json.Obj
          [
            ("p50", Json.Int t.g_p50_retries);
            ("p95", Json.Int t.g_p95_retries);
            ("max", Json.Int t.g_max_retries);
          ] );
      ( "sites",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("site", Json.Int s.g_site);
                   ("episodes", Json.Int s.g_episodes);
                   ("retries", Json.Int s.g_retries);
                   ("steps", Json.Int s.g_steps);
                   ("ratio", Json.Float s.g_ratio);
                 ])
             t.g_sites) );
    ]

let render (t : t) : string list =
  [
    Printf.sprintf "runs: %d (%s)" t.g_runs
      (String.concat ", "
         (List.map (fun (tag, n) -> Printf.sprintf "%s %d" tag n) t.g_outcomes));
    Printf.sprintf "recovery runs: %d, total steps: %d" t.g_recovery_runs
      t.g_total_steps;
  ]
  @ (if t.g_elapsed > 0. then
       [
         Printf.sprintf "throughput: %.1f runs/sec over %.2fs%s"
           t.g_runs_per_sec t.g_elapsed
           (match t.g_engines with
           | [] -> ""
           | es -> " (" ^ String.concat ", " es ^ ")");
       ]
     else [])
  @ [
    Printf.sprintf "recovery steps: p50 %d, p95 %d, max %d"
      t.g_p50_recovery_steps t.g_p95_recovery_steps t.g_max_recovery_steps;
    Printf.sprintf "retries:        p50 %d, p95 %d, max %d" t.g_p50_retries
      t.g_p95_retries t.g_max_retries;
  ]
  @
  match t.g_sites with
  | [] -> []
  | sites ->
      Printf.sprintf "%6s %9s %8s %10s %8s" "site" "episodes" "retries"
        "steps" "ratio"
      :: List.map
           (fun s ->
             Printf.sprintf "%6d %9d %8d %10d %7.2f%%" s.g_site s.g_episodes
               s.g_retries s.g_steps (100. *. s.g_ratio))
           sites
