(** Cross-run aggregation: fold a JSONL stream of per-run records (the
    fuzzer's [--jsonl] output) into percentile summaries of recovery
    cost — p50/p95/max recovery steps and retries over the runs that
    recovered — and a per-site table of episodes, retries, recovery
    steps, and the wasted-step ratio (site recovery steps / total steps
    of all runs).

    ["fuzz_summary"] records contribute their ["engine"] and
    ["elapsed_sec"] members, so the aggregate reports throughput
    (runs/sec) without re-parsing logs. Lines of any other ["type"] (the
    meta header) are skipped; an unparsable line is an error. *)

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
  g_recovery_runs : int;  (** runs with at least one recovery episode *)
  g_total_steps : int;
  g_p50_recovery_steps : int;
  g_p95_recovery_steps : int;
  g_max_recovery_steps : int;
  g_p50_retries : int;
  g_p95_retries : int;
  g_max_retries : int;
  g_sites : site_agg list;  (** ascending site id *)
  g_engines : string list;
      (** distinct engines named by [fuzz_summary] records, sorted *)
  g_elapsed : float;
      (** max [elapsed_sec] across [fuzz_summary] records — the stream's
          wall-clock; [0.] when no summary carried one *)
  g_runs_per_sec : float;  (** [g_runs /. g_elapsed]; [0.] when unknown *)
}

val percentile : int list -> float -> int
(** Nearest-rank percentile (the value at rank ceil(p/100*n), 1-based) of
    an unsorted list; [0] on the empty list. [p] is clamped to
    [\[0, 100\]] (NaN counts as 0), so any float is a safe argument. *)

(** {1 The run record} *)

val outcome_tag : Conair_runtime.Outcome.t -> string
(** ["success"], ["failed"], ["hang"] or ["fuel-exhausted"]. *)

val run_record :
  case:string -> seed:int -> outcome:Conair_runtime.Outcome.t ->
  Conair_runtime.Stats.t -> Json.t
(** The per-run record {!of_records} folds — the one encoder shared by
    the fuzzer's JSONL stream and the serve daemon's jobs. *)

(** {1 Folding} *)

val of_records : Json.t list -> t

val of_lines : string list -> (t, string) result
(** Parse JSONL lines and aggregate; [Error] names the first bad line. *)

val to_json : t -> Json.t
val render : t -> string list
