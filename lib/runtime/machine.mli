(** The Mir interpreter with the ConAir recovery runtime built in.

    [create] pre-resolves the program once through [Link] — register
    names interned to dense indices (frames hold a flat [Value.t array]),
    labels and call targets resolved to array indices, fail-arm labels
    annotated onto their blocks — and the step loop runs without any name
    lookups; the scheduler keeps a dense live-thread array instead of
    folding the thread table every step.

    One scheduler step executes one instruction (or terminator) of one
    thread. The recovery pseudo-instructions are interpreted here:
    [Checkpoint] saves the register image into the thread's single
    checkpoint slot (an [Array.copy]), [Try_recover] compensates
    (releases locks / frees blocks acquired in the current region, §4.1)
    and rolls back within a per-site retry budget, [Timed_lock] blocks
    with a step timeout. Unhardened programs fail where hardened ones
    recover: asserts stop the program, invalid dereferences are
    segmentation faults, and a configuration with every live thread
    blocked is a hang.

    Semantics are bit-for-bit those of the original map-based
    interpreter, kept as [Ref_machine]: same outcomes, outputs, step
    counts, traces, statistics and random-stream consumption. *)

open Conair_ir
module Label = Ident.Label

(** How a deadlock is noticed at a hardened lock site (§3.1.1: "ConAir
    can work with any deadlock-detection mechanism"): lock timeouts (the
    paper's prototype) or wait-for-graph cycle detection (recovery starts
    the moment the cycle closes). *)
type deadlock_detection = Timeout_based | Wait_graph

type config = {
  policy : Sched.policy;
  fuel : int;  (** scheduler-step budget before giving up *)
  max_retries : int;  (** per-site retry budget (paper default: 10^6) *)
  deadlock_detection : deadlock_detection;
  deadlock_backoff : int;
      (** max random sleep after a deadlock rollback (livelock avoidance) *)
  verify_rollbacks : bool;
      (** check at every rollback that no dynamically-destroying
          instruction executed since the checkpoint — the static
          analysis' safety invariant *)
  perturb_timing : bool;
      (** randomize sleep durations and stagger thread startup — the
          Rx-style environment change the baselines use on reexecution;
          never used by ConAir itself *)
  spawn_jitter : int;
      (** max random startup delay for spawned threads under
          [perturb_timing] *)
  profile_sites : bool;
      (** record per-instruction execution counts (ConSeq-style
          well-tested-site profiling, §3.4); off by default *)
}

val default_config : config

(** Metadata from the hardening pass: fail-arm labels per site, used to
    close recovery episodes when a site is finally passed. [fail_index]
    is the same mapping pre-resolved by [Harden.apply], consumed directly
    by the link pass. *)
type meta = {
  fail_blocks : (Label.t * int) list;
  fail_index : (string, int) Hashtbl.t;
}

val meta_of_harden : Conair_transform.Harden.t -> meta

type t = {
  prog : Program.t;
  linked : Link.program;  (** [prog], pre-resolved once at [create] *)
  config : config;
  meta : meta option;
  globals : (string, Value.t) Hashtbl.t;
  heap : Heap.t;
  locks : Locks.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable next_tid : int;
  mutable step : int;  (** virtual time *)
  mutable outputs : string list;  (** newest first *)
  stats : Stats.t;
  sched : Sched.t;
  mutable outcome : Outcome.t option;
  mutable trace : Trace.sink option;
  mutable prof : Profile.probe option;
      (** cost-profiler probe; like [trace], one [match] per step when off *)
  mutable race : Race_probe.probe option;
      (** race-detector probe; one [match] per memory/sync op when off *)
  mutable flight : Flight_ring.t option;
      (** flight-recorder ring; one [match] per decision / sync op when
          off; the block engine's windows feed it in bulk *)
  mutable live : Thread.t array;
      (** slots [0, live_n): the live threads, ascending tid — maintained
          at spawn and death instead of folded from [threads] per step *)
  mutable live_n : int;
  mutable ready : int array;  (** scratch: eligible indices into [live] *)
  mutable wbound : int;
      (** the running window's step budget, consulted by compiled
          control-transfer links ([Compile]) before chaining into their
          target block; owned by [Block_machine], unused here *)
}

val link : ?meta:meta -> Program.t -> Link.program
(** The linked image [create] runs: [Link.link] with the metadata's
    fail-arm index — the same memo entry, so calling it after [create]
    costs one list scan. *)

val create :
  ?config:config -> ?meta:meta -> ?hooks:Hooks.bundle -> Program.t -> t
(** Link the program and return a machine with the main thread ready to
    run. [hooks] attaches the run's observation hooks (trace sink,
    profiler probe, race probe, flight ring, sched tap/feed) at
    construction; they are private to this machine, so concurrent
    in-process runs never share hook state. All hooks are off by default
    — with none installed the engine pays one [match] per step. *)

val outputs : t -> string list
(** In emission order. *)

val stats : t -> Stats.t
val thread : t -> int -> Thread.t
val live_threads : t -> int list

val thread_summaries : t -> (int * string * string list) list
(** Post-mortem view for diagnostic bundles: every thread ever spawned
    (finished ones included), ascending tid, as
    [(tid, status, held locks)] with the status rendered to an
    engine-independent string ([runnable], [sleeping:N],
    [blocked_lock:NAME], [blocked_event:NAME], [blocked_join:TID],
    [done], [failed]). *)

val thread_frames : t -> int -> (string * string * int * int option) list option
(** Where thread [tid] stands: its frames, innermost first, as
    [(function, block label, instruction index, iid)] — the iid is
    [None] at a terminator. [None] for a tid never spawned.
    Engine-independent, like {!thread_summaries}. *)

val step : t -> bool
(** Run one scheduler step; [false] once the program has finished. *)

val run : t -> Outcome.t
(** Run to completion or until the fuel runs out. *)

val run_program : ?config:config -> ?meta:meta -> Program.t -> t * Outcome.t

val hooks : t -> Hooks.target
(** The machine's six hook slots (trace, profile, race, flight, sched
    tap/feed), bundled for [Hooks.install] — the escape hatch for
    self-referential hooks. *)

(** {1 Engine internals}

    The execution helpers, exported for [Compile]/[Block_machine]: the
    block-compiled engine reuses [Machine]'s own evaluation, failure and
    recovery paths verbatim so the two engines cannot drift. Not intended
    for other callers. *)

exception Fault of string
(** An unrecovered runtime fault of the current thread. *)

val eval_reg : Thread.frame -> int -> Value.t
val eval : Thread.frame -> Link.rarg -> Value.t
val eval_args : Thread.frame -> Link.rarg array -> Value.t array
val eval_arg_list : Thread.frame -> Link.rarg array -> Value.t list
val as_int : Value.t -> int
val as_mutex : Value.t -> string
val eval_binop : Instr.binop -> Value.t -> Value.t -> Value.t
val eval_unop : Instr.unop -> Value.t -> Value.t
val render_output : string -> Value.t list -> string

val set_failure :
  t ->
  kind:Instr.failure_kind ->
  site_id:int option ->
  iid:int option ->
  tid:int ->
  msg:string ->
  unit

val note_branch_taken :
  t -> Thread.t -> Thread.frame -> taken_idx:int -> other_idx:int -> unit

val close_episode : t -> Thread.t -> unit
val do_return : t -> Thread.t -> Value.t option -> unit
val eligible : t -> Thread.t -> bool

val run_thread_step : t -> Thread.t -> unit
(** Execute one instruction (or terminator) of [th], including the
    sleeper wake and all probe emission — everything [step] does except
    eligibility scanning, the scheduling decision and the step-counter
    bump. *)

(** {1 Whole-machine snapshots}

    For the Fig 4 right-end baselines only — ConAir itself never copies
    memory state. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore state but not time: virtual time is wall-clock and keeps
    moving forward, so sleep deadlines captured in the snapshot retain
    their meaning across restores. A snapshot can be restored any number
    of times. *)

val reseed : ?perturb:bool -> t -> Sched.policy -> t
(** Swap the scheduling policy (and optionally enable timing
    perturbation) — how baselines explore a different interleaving after
    a rollback or restart. *)
