(** The block-compilation ("threaded code") pass over [Link]'s output.

    Each linked instruction becomes one OCaml closure with operand
    decoding, callee resolution, jump-target resolution and
    fault-message rendering done at compile time, and the closures
    tail-call each other: [cb_chain.(i)] is the fused straight-line run
    from index [i] (links share tails, so compilation stays linear in
    the block size). Control transfers — jumps, branches, calls,
    returns — chain straight into their target block's compiled code
    whenever the window's step budget ([Machine.t]'s [wbound] field,
    owned by [Block_machine]) covers the target's worst-case run, so a
    long single-threaded stretch executes closure-to-closure with no
    driver dispatch at all.

    Step accounting is batched per straight-line segment: the entry
    closure of a run of fault-free-by-construction-or-rollback links
    adds the whole segment's length to [m.step] up front, and the
    member closures touch no counters at all. If a member faults at
    slot [k], the raising site first subtracts the not-yet-retired
    tail of the batch and parks [fr.idx] at [k], so the counters and
    frame an observer sees are bit-identical to one-at-a-time
    counting. Terminators count their own single step as they execute.

    A block is compiled when first entered a second time: until then
    its slot holds a stub carrying the real stopper and iid tables,
    which sends each instruction to the generic step ({!t_sched} or
    {!t_generic}) and, on the second pass, compiles the block, installs
    it and carries on. Code is built only for blocks that run more than
    once.

    Instructions that can never affect another thread's eligibility
    compile to real code; schedulable ones (lock/unlock, spawn/join,
    sleep, wait/notify, recovery, fail-stop and [exit]) are stoppers
    that send the driver through the generic [Machine.run_thread_step]
    path. The runs between stoppers are what [Block_machine] retires
    without consulting the scheduler.

    Closures replicate [Machine.exec_instr] bit-for-bit — including
    operand evaluation order and fault-message bytes — and reuse
    [Machine]'s own helpers off the hot paths so the engines cannot
    drift. Faults are raised with the program point parked at the
    faulting instruction and that instruction's step not counted
    (segment batches having been rolled back as above), so the
    driver's fault arm finds the faulting frame on top with [fr.idx]
    at the faulting instruction. *)

(** Chain results, unboxed so completing a run allocates nothing. The
    chain has already counted every retired step in [m.step]. *)

val t_refresh : int
(** the program point moved and the budget gate stopped the chain:
    re-fetch frame and block, keep going *)

val t_end : int
(** the window is over (thread died, or the outcome is decided) *)

val t_sched : int
(** stopped at an unexecuted schedulable op at [fr.idx]: run it through
    the generic path *)

val t_failed : int
(** an assertion (or inline-compiled fault) failed mid-run; its step is
    already counted and the failure is already recorded *)

val t_single : int
(** a single-step ([cb_one]) closure retired its one instruction
    without moving the program point *)

val t_generic : int
(** stopped at an unexecuted instruction that is not schedulable — a
    memory access of a probe-compiled program ([compile ~probe:true]),
    or any instruction of a block not compiled yet: run it through the
    generic path. It changes no other thread's eligibility; only a
    return from the thread's last frame ends the thread. *)

type chain = Machine.t -> Thread.t -> Thread.frame -> int
(** Retires the run from the entry index under a single call, returning
    one of the [t_*] results. May raise [Machine.Fault] with the
    faulting frame on top of the thread's stack, [fr.idx] at the
    faulting instruction and that instruction's step not yet counted. *)

type cblock = {
  cb_chain : chain array;
      (** indexed by [fr.idx]; slot [length lb_instrs] is the
          terminator: the fused run from that entry point, chaining
          through control transfers while [m.wbound] allows *)
  cb_one : chain array;
      (** the same compiled links with a halting continuation: retires
          exactly one instruction ([t_single] when the program point did
          not move); control transfers still gate on [m.wbound], so a
          driver that wants strict single-stepping must floor it first *)
  cb_iids : int array;  (** per-instruction iids, for fault reports *)
  cb_need : int array;
      (** worst-case step budget the chain at this index consumes
          before its next [m.wbound] gate, counting the generic step of
          a stopping schedulable op *)
  cb_sched : bool array;
      (** true where the slot holds a stopper (a schedulable op, or a
          memory access under [~probe]) *)
}

type program = cblock array array  (** indexed [lf_id].(lb_index) *)

val compile : ?probe:bool -> Link.program -> program
(** Compile (or fetch from the code cache, keyed by the linked image's
    physical identity and [probe]; an image's code is cached from its
    second compile on, so a program run once leaves no code behind). With [probe] (default [false]) the
    memory accesses — loads, stores and frees, the ops that emit
    race-probe events — are stoppers returning {!t_generic}, so a machine
    with a race probe installed keeps the rest of its windows
    compiled. *)
