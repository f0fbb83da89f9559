(** Scheduling policy: which eligible thread runs the next instruction.

    Deterministic given the policy and seed, so every run is exactly
    reproducible. The seeded generator is the standard library's
    [Random.State] — the LXM generator (L64X128) on OCaml >= 5.0 —
    initialized with [Random.State.make [| seed |]]; the same state also
    feeds deadlock backoff and timing perturbation, so the random stream
    is part of the machine semantics. Everything derived from a run is
    schedule-deterministic in (program, config, policy, seed): outcomes,
    traces, cost profiles, and race-detection reports are byte-identical
    across repeated runs with the same seed, on either engine.

    The scheduler doubles as the record/replay seam: {!set_tap} installs
    an observer of every decision and {!set_feed} an override of the
    policy's choice (see [Conair_replay]). Both are [None] by default and
    cost one match per decision when off — the same zero-cost-when-off
    discipline as the trace/profile/race probes. *)

type policy =
  | Round_robin  (** strict rotation among eligible threads; rng unused *)
  | Random of int  (** uniform choice, seeded LXM ([Random.State]) *)

type tap = chosen:int -> tid_of:(int -> int) -> int -> unit
(** A decision observer: [tap ~chosen ~tid_of n] is told the chosen tid
    and the eligible set as an index view — the [n] tids [tid_of 0] ..
    [tid_of (n - 1)], ascending (see {!eligible_mem}). No list is built
    for it; [tid_of] is valid only during the call. *)

type t = {
  policy : policy;
  mutable rng : Random.State.t;
  mutable cursor : int;
  mutable tap : tap option;
      (** observes every decision; install via {!set_tap} *)
  mutable tap_run : (tid:int -> int -> unit) option;
      (** the tap's forced-run entry: [n] forced decisions of [tid] *)
  mutable feed : (eligible:int list -> int) option;
      (** overrides every decision; install via {!set_feed} *)
  mutable feed_run : feed_run option;  (** the feed's forced-run entry *)
}

(** A feed's forced-run entry. *)
and feed_run = {
  fr_allow : tid:int -> int;
      (** how many consecutive forced decisions of [tid] the feed would
          make from here, consuming none *)
  fr_take : tid:int -> int -> unit;
      (** consume [n] such decisions ([n] at most what [fr_allow]
          admitted) *)
}

val create : policy -> t

val choose : t -> int list -> int
(** Pick one of the eligible thread ids.
    @raise Invalid_argument on an empty list. *)

val choose_idx : t -> tid_of:(int -> int) -> int -> int
(** [choose_idx t ~tid_of n] picks an index in [0, n): the array-based
    equivalent of [choose] over the [n] eligible threads whose ids
    [tid_of] reports in ascending order. Identical cursor movement and
    rng consumption, so both engines see the same random stream. A tap
    gets the same index view; the eligible list is materialized only for
    a feed. The hooks see exactly what the list-based engine's hooks
    would see.
    @raise Invalid_argument when [n <= 0]. *)

val rng : t -> Random.State.t
(** The runtime's randomness source (deadlock-recovery backoff, timing
    perturbation). *)

(** {1 Record/replay hooks}

    A [tap] observes every scheduling decision — including the
    single-eligible fast path — with the eligible tids in ascending
    order. A [feed] replaces the policy's decision; it must return a
    member of [eligible] (or raise to abort the run). A fed decision
    still consumes the policy's rng draw and cursor movement for the
    chosen thread, so the downstream random stream (deadlock backoff,
    perturbed timing) stays aligned with the original run during
    replay. *)

val set_tap : ?run:(tid:int -> int -> unit) -> t -> tap option -> unit
(** Install (or remove) the tap and its forced-run entry [run] (default
    none; see {!forced_run}). *)

val eligible_mem : tid_of:(int -> int) -> int -> int -> bool
(** [eligible_mem ~tid_of n tid]: [tid] is one of a tap's [n] eligible
    tids. Allocates nothing. *)

val set_feed : ?run:feed_run -> t -> (eligible:int list -> int) option -> unit
(** Install (or remove) the feed and its forced-run entry [run] (default
    none: the feed then sees every decision one at a time). *)

(** {1 Forced runs}

    The block engine retires a compiled window — consecutive decisions
    in which exactly one thread is eligible — under one hook call, the
    scheduler's analogue of [Flight_ring.push_run]. The window's first
    decision goes through {!choose_idx} as usual, with the machine in
    that decision's state; it is the only decision of the run that can
    be a context switch. The remaining decisions are all forced
    ([eligible = [tid]], chosen = the previous decision) and are
    accounted after the window retires. *)

val hooked : t -> bool
(** A tap or a feed is installed. *)

val forced_allow : t -> tid:int -> int
(** How many forced decisions of [tid] may follow the one just made:
    [max_int] without a feed, the feed run entry's [fr_allow] with one,
    [0] for a feed that has no run entry. The engine bounds the window
    by it, so a decision the feed would refuse is always made through
    {!choose_idx}, where it diverges exactly as on the per-step
    engines. *)

val forced_run : t -> tid:int -> int -> unit
(** Account [n] forced decisions of [tid]: the feed's [fr_take], then
    the tap's run entry — or, for a tap without one, the per-decision
    tap called [n] times with [~chosen:tid] and [tid] the one eligible
    thread. Such a tap sees the same decision stream, but after the run
    retired: a tap that reads machine state must do so only at
    switches. *)

(** {1 Saved scheduler state}

    The rng state and rotation cursor at a point in time — the scheduler
    half of a machine snapshot, used by the time-travel inspector to seek
    within a recorded run. *)

type saved

val save : t -> saved
(** Copy the current rng state and cursor. *)

val restore : t -> saved -> unit
(** Reinstate a {!save}d state (the saved copy stays intact and can be
    restored again). Hooks are untouched. *)
