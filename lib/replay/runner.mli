(** The one run body: every facade run, schedule recording, bundle
    regeneration and served run job executes its program through
    {!exec}, exactly once. A schedule recorder and a flight ring can
    ride on the run next to the caller's own hooks (a trace sink, a race
    probe, ...), so the log, the bundle and the trace of one call all
    describe the same execution. *)

open Conair_ir
open Conair_runtime

(** One execution and what rode on it. *)
type t = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
      (** the finished machine; {!Conair_runtime.Engine} reads it *)
  log : Schedule_log.t option;
      (** with [~record:true]: the self-contained schedule log that
          replays this run bit for bit *)
  bundle : Conair_obs.Flight.t Lazy.t option;
      (** with [~flight:true]: the diagnostic bundle of the ring,
          assembled when forced. Its reason is ["failure"] when the run
          failed and ["requested"] otherwise. *)
}

val exec :
  ?engine:Engine.t ->
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?hooks:Hooks.bundle ->
  ?ident:Schedule_log.ident ->
  ?record:bool ->
  ?flight:bool ->
  Program.t ->
  t
(** Run [program] once on [engine] (default [Block]) under [config]
    (default {!Machine.default_config}), with [meta] (the recovery
    metadata of a hardened program) and [hooks]. [record] attaches a
    schedule recorder as the scheduler tap, replacing any tap in
    [hooks]; [flight] attaches a flight ring of
    {!Flight_ring.default_capacity} decisions, replacing any ring in
    [hooks]. [ident] (default [Schedule_log.ident "program"]) names the
    log and the bundle. Both embed the program text. With neither
    attachment the run is exactly [Engine.create ~hooks] +
    [Engine.run]. *)
