(** Always-on flight recorder ring: a fixed-capacity, zero-allocation
    record of the recent scheduler decisions, preemptive switches, and
    synchronization/recovery events of one run.

    A ring is installed per machine through {!Hooks.bundle}'s [flight]
    slot. It does {e not} force the block engine off its window fast
    path: compiled windows account their decisions in bulk via
    {!push_run}, which is what keeps
    recorder-on throughput within a few percent of recorder-off. The
    decision stream is exactly what a full [Conair_replay.Recorder] tap
    would capture, so the tail can be verified against (and regenerated
    into) an ordinary schedule log. *)

type t

type event = {
  mutable fe_kind : int;
  mutable fe_step : int;
  mutable fe_tid : int;
  mutable fe_arg : int;
  mutable fe_detail : string;
}

(** Event kinds stored in [fe_kind]. *)

val k_acquire : int
val k_block : int
val k_release : int
val k_spawn : int
val k_rollback : int
val k_recovered : int
val k_fail : int

val kind_name : int -> string

val default_capacity : int
val default_event_capacity : int

val create : ?cap:int -> ?events:int -> unit -> t
(** [create ()] makes a ring holding the last [cap] (default 4096)
    scheduler decisions and the last [events] (default 256) sync /
    recovery events. Raises [Invalid_argument] on non-positive sizes. *)

val capacity : t -> int

val total : t -> int
(** Decisions ever pushed (the run's non-idle step count so far). *)

val prev : t -> int
(** Previously chosen tid, [-1] before the first decision. Engines use
    this to classify preemptive switches with the recorder's rule. *)

val push : t -> int -> preemptive:bool -> unit
(** Record one scheduler decision. O(1), allocation-free. *)

val push_run : t -> int -> int -> unit
(** [push_run t tid count] records [count] consecutive decisions for
    [tid] — a block-engine window, none of them preemptive by the
    window's single-eligible-thread invariant. *)

val event :
  t -> kind:int -> step:int -> tid:int -> arg:int -> detail:string -> unit
(** Record a sync/recovery event in place (no allocation; [detail] must
    be an existing string such as a lock name). *)

(** {1 Dump-time readers} *)

val tail_first : t -> int
(** Absolute ordinal of the first decision still in the ring. *)

val tail : t -> int array
(** The retained decision tail, oldest first. *)

val tail_preemptions : t -> int array
(** Absolute ordinals of the preemptive switches within {!tail},
    ascending. Complete for the retained tail. *)

val events : t -> event list
(** Retained events, oldest first (fresh copies). *)

val events_total : t -> int
