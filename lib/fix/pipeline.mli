(** The end-to-end fix pipeline: detect -> record a failing schedule ->
    minimize -> synthesize candidates ({!Patch}) -> validate through the
    three {!Gates} -> rank survivors by measured cost
    ({!Conair_obs.Overhead.cost_of}).

    Reports carry no wall-clock times and no engine names: for a given
    (program, options) the JSON is byte-identical across the three
    engines. See [docs/FIXING.md]. *)

open Conair_ir
open Conair_runtime

type options = {
  engine : Engine.t;  (** execution engine for every run of the pipeline *)
  fuel : int;
  max_retries : int;
  max_candidates : int;  (** cap on synthesized candidates *)
  sweep_seeds : int;  (** random seeds per validation sweep (gates 2+3) *)
  search_seeds : int;  (** random seeds tried when hunting a failing run *)
  minimize_budget : int;  (** ddmin candidate executions *)
  order_timeout : int;  (** virtual-time budget of order-candidate waits *)
  cost_seeds : int list;  (** seeds of the [Overhead.cost_of] measurement *)
}

val default_options : options
(** Block engine, fuel 8_000_000, 8 candidates, 100-seed sweeps, 50
    search seeds, 2000 ddmin tests, 30_000-step order timeout. *)

type candidate = {
  c_patch : Patch.t;
  c_gates : Gates.result list;  (** replay, regression, deadlock-freedom *)
  c_survived : bool;
  c_schedules : int;  (** distinct interleaving signatures in its sweep *)
  c_cost : Conair_obs.Overhead.cost option;  (** survivors only *)
  c_overhead_pct : float option;  (** vs. the unpatched program *)
}

type t = {
  fx_app : string;
  fx_variant : string;
  fx_detection : Conair_race.Report.t;  (** merged detection findings *)
  fx_failure : string option;
      (** recorded failing outcome; [None] = no failing schedule found *)
  fx_fail_policy : string option;  (** ["round-robin"] | ["random:N"] *)
  fx_fail_decisions : int option;
  fx_minimized : (int * int) option;
      (** preemptive switches before/after minimization *)
  fx_sweep_seeds : int;
  fx_baseline : Gates.sweep option;  (** sweep of the unpatched program *)
  fx_base_cost : Conair_obs.Overhead.cost;
  fx_hardened_overhead_pct : float option;
      (** overhead of ConAir survival hardening of the unpatched program
          — the "recover forever" alternative a fix is weighed against *)
  fx_candidates : candidate list;  (** survivors first, cheapest first *)
  fx_survivors : int;
}

val run :
  ?options:options ->
  ?accept:(string list -> bool) ->
  app:string ->
  variant:string ->
  Program.t ->
  t
(** The whole pipeline on one program. [accept] is the output oracle of
    apps whose bug manifests as wrong output rather than a failed
    assertion. Never raises on a clean program: with no failing schedule
    found the report simply carries no candidates. *)

val to_json : t -> Conair_obs.Json.t
(** The ["fix_report"] document — deterministic, engine-independent. *)

val render : t -> string
