(** The paper-style overhead harness: paired unhardened/hardened runs
    with the cost profiler attached, regenerating the EXPERIMENTS.md
    Table 3 numbers (recovery verdicts, fix/survival overhead %) plus the
    recovery-cost columns only the profiler can supply — per-site retry
    counts, max/mean recovery steps, wasted-step attribution.

    Parameterized over [case] values rather than the bugbench registry
    (which lives above this library in the dependency order); the CLI's
    [overhead] subcommand builds the cases from the registry. *)

open Conair_ir

type inst = {
  program : Program.t;
  fix_iids : int list;  (** instruction ids of the observed failure *)
  accept : string list -> bool;  (** output oracle *)
}

(** The four instances [bench/main.ml]'s table3 pairs per benchmark:
    buggy with the oracle always on (fix mode), buggy with the paper's
    oracle setting (survival mode), and the matching clean variants for
    the overhead measurements. *)
type case = {
  name : string;
  needs_oracle : bool;  (** the paper's "yes*": needs a developer oracle *)
  buggy_fix : inst;
  buggy_survival : inst;
  clean_fix : inst;
  clean_survival : inst;
}

type site_retry = {
  sr_site : int;
  sr_episodes : int;
  sr_retries : int;
  sr_wasted : int;  (** steps rolled back because of this site *)
}

type row = {
  o_name : string;
  o_needs_oracle : bool;
  o_fix_recovered : bool;
  o_fix_ok : int;  (** successful runs, out of [o_runs] *)
  o_surv_recovered : bool;
  o_surv_ok : int;
  o_runs : int;
  o_fix_overhead_pct : float;
  o_surv_overhead_pct : float;
  o_rollbacks : int;
  o_retries : int;
  o_max_recovery_steps : int;
  o_mean_recovery_steps : float;
  o_useful_steps : int;
  o_checkpoint_steps : int;
  o_wasted_steps : int;
  o_sites : site_retry list;  (** ascending site id *)
  o_detected_by : string list;
      (** detector lenses that flag the buggy program ("hb", "lockset",
          "deadlock"); empty when no [detect] callback was supplied *)
}

type summary = {
  s_cases : int;
  s_fix_recovered : int;
  s_surv_recovered : int;
  s_max_fix_overhead_pct : float;
  s_max_surv_overhead_pct : float;
}

val measure :
  ?config:Conair_runtime.Machine.config ->
  ?random_runs:int ->
  ?detect:(case -> string list) ->
  case -> row
(** Recovery verdicts (deterministic schedule + [random_runs] seeded
    random schedules, default 5 — the bench's "6/6"), instruction-count
    overhead on the clean pairs, and a profiled deterministic
    survival-mode buggy run for the recovery-cost columns. [detect]
    names the detector lenses flagging the case's buggy program — a
    callback because the detector library sits above this one in the
    dependency order; the CLI closes over [Conair.Race] and hands it
    down.
    @raise Failure if the analysis rejects a program. *)

val measure_all :
  ?config:Conair_runtime.Machine.config ->
  ?random_runs:int ->
  ?detect:(case -> string list) ->
  case list ->
  row list

val summary : row list -> summary

val to_json : row list -> Json.t
(** The [BENCH_overhead.json] document: per-case rows plus the summary. *)

val table_rows : row list -> string list
(** Text table in the shape of EXPERIMENTS.md Table 3 (header line
    first). *)

(** {1 Deterministic run-cost measurement}

    Used by the fix synthesizer to rank surviving candidates and to put
    fixed-forever cost next to ConAir-hardened cost. Always measured on
    the fast engine: instruction and step counts are part of the
    engines' differential guarantee, so the numbers are
    engine-independent. *)

type cost = {
  k_runs : int;
  k_instrs : int;  (** total executed instructions across the runs *)
  k_steps : int;  (** total scheduler steps across the runs *)
  k_mean_instrs : float;
}

val cost_of :
  ?engine:Conair_runtime.Engine.t ->
  ?config:Conair_runtime.Machine.config ->
  ?meta:Conair_runtime.Machine.meta ->
  ?seeds:int list ->
  Program.t ->
  cost
(** One deterministic round-robin run plus one seeded random run per
    entry of [seeds] (default [[1; 2; 3]]), totalled, on [engine]
    (default [Block], the fix pipeline's; the counts are identical on
    every engine). [meta] carries the recovery metadata when costing a
    hardened program. *)

val cost_overhead_pct : base:cost -> cost -> float
(** Mean-instruction overhead of a measured program relative to [base],
    in percent (negative = cheaper than base). *)

val cost_json : cost -> Json.t
