(* The block-compilation ("threaded code") pass over [Link]'s output.

   [Link] already resolved every name to a dense index; this pass goes
   further. Each linked instruction becomes ONE OCaml closure with its
   operand decoding done at compile time: register indices, constants,
   callee functions, jump targets and fault-message strings are captured
   in the closure's environment, so executing it is a single indirect
   call with no [match] over the opcode and no operand
   re-interpretation. The closure executes its body and tail-calls the
   *next* instruction's closure: [cb_chain.(i)] is the fused run from
   index [i]. Chains share their tails — compiling a block of [n]
   instructions builds [O(n)] closures — and because every index has a
   chain, a thread that re-enters a block mid-way still lands on fused
   code.

   Control transfers chain too: a jump, branch, call or return link
   moves the program point and then — if the window's step budget
   ([m.wbound], owned by [Block_machine]) covers the target's worst-case
   run — tail-calls straight into the target block's chain, never
   returning to the driver. A long single-threaded stretch therefore
   executes as one closure-to-closure trampoline, and the driver is
   consulted only when the budget runs low or a stopper is reached.

   The unit of partitioning is the *schedulable operation*. Instructions
   that can only affect the executing thread's own registers, stack
   slots, heap cells or globals — and can therefore never change another
   thread's eligibility — compile to real code; the schedulable ones
   (lock/unlock, spawn/join, sleep, wait/notify, recovery and fail-stop,
   i.e. exactly the points where [Machine]'s scheduler makes visible
   decisions) are chain stoppers that tell the driver to fall back to
   the generic per-step path. Retiring the runs in between without
   consulting the scheduler is semantics-preserving precisely when the
   scheduler's choice over the window is forced (one eligible thread);
   a tap or feed is told about the window in bulk ([Sched.forced_run]).
   Under a race probe ([compile ~probe:true]) the memory accesses are
   stoppers too, so their probe events come from the generic step.

   Every instruction also gets a single-step form, [cb_one.(i)]: the
   same compiled link with the [halt] continuation in place of its
   successor. The driver uses it to retire the tail of a window one
   step at a time when the remaining budget is smaller than the chain,
   and [Block_machine]'s compiled generic step uses it (with the budget
   floored, so transfers never chain) to dispatch single steps in
   multi-threaded phases without [exec_instr]'s interpretive match.

   Step accounting is batched per straight-line segment. A maximal run
   of [C_line] links (plain data ops: moves, binops, loads, asserts —
   anything that reads neither [m.step] nor [fr.idx] and whose only
   side effect besides register/global writes is a possible fault) is
   entered through a closure that adds the whole segment's length to
   [m.step] up front; the member closures then touch no counters and
   never write [fr.idx]. Observable equivalence is restored at the two
   places it could leak: a member that faults at slot [k] first parks
   [fr.idx <- k] and subtracts the not-yet-retired tail of the batch
   ([seg_fault]), and an assert that fails does the same before
   recording the failure — so the [m.step] a checkpoint's [ck_step], a
   failure record or a fault observer sees is exactly the
   one-at-a-time value. Links that themselves read or record the
   counters (checkpoints, destroying preambles reading
   [last_destroy_step]) compile as [C_self]: they sit outside any
   batch, write their own [fr.idx] and count their own step after the
   body like the per-step drivers do. Terminators also count their own
   step as they execute, and park [fr.idx] only at fault-raising
   sites; the one fault that historically fired after a frame pop
   (return-with-no-value) is compiled inline instead of raised.

   Every closure replicates [Machine.exec_instr]'s behaviour for its
   opcode *including evaluation order* (binop operands bind
   right-to-left, call arguments left-to-right, like the interpreter)
   and fault messages, and reuses [Machine]'s own helpers
   ([eval_binop], [do_return], [set_failure], ...) off the hot paths so
   the engines cannot drift. The differential suite in
   [test_fast_exec.ml] enforces bit-for-bit identity over the bugbench
   catalog. *)

open Conair_ir
module Reg = Ident.Reg
module Fname = Ident.Fname

(* Chain results, as unboxed ints so a run's completion allocates
   nothing. Everything retired up to the returned point has already
   bumped [m.step]. *)
let t_refresh = 0
let t_end = 1
let t_sched = 2
let t_failed = 3
let t_single = 4
let t_generic = 5

type chain = Machine.t -> Thread.t -> Thread.frame -> int

type cblock = {
  cb_chain : chain array;
      (** indexed by [fr.idx]; slot [length lb_instrs] is the
          terminator: the fused run from that entry point *)
  cb_one : chain array;
      (** same links with the [halt] continuation: retires exactly one
          instruction (transfers still gate on [m.wbound]) *)
  cb_iids : int array;  (** per-instruction iids, for fault reports *)
  cb_need : int array;
      (** worst-case step budget the chain at this index consumes
          before its next [m.wbound] gate, counting the generic step of
          a stopping schedulable op *)
  cb_sched : bool array;
      (** true where the slot holds a schedulable-op stopper *)
}

type program = cblock array array  (** indexed [lf_id].(lb_index) *)

let halt : chain = fun _ _ _ -> t_single

let dummy_cblock =
  {
    cb_chain = [||];
    cb_one = [||];
    cb_iids = [||];
    cb_need = [||];
    cb_sched = [||];
  }

(* Operand getters: the compile-time half of [Machine.eval]. The
   undefined-register message is rendered at fault time, exactly like
   [Machine.eval] — rendering it eagerly here would put a [Format]
   round trip on every compiled operand and dominate compilation. *)
let undef_msg (f : Link.lfunc) (i : int) =
  Format.asprintf "use of undefined register %a" Reg.pp f.Link.lf_reg_names.(i)

let getter (f : Link.lfunc) (a : Link.rarg) : Thread.frame -> Value.t =
  match a with
  | Link.L_const v -> fun _ -> v
  | Link.L_reg i ->
      fun fr ->
        let v = fr.Thread.regs.(i) in
        if v == Thread.undef then raise (Machine.Fault (undef_msg f i)) else v

(* Shared boolean results: [Value.t] carries no identity anywhere but the
   [undef] sentinel, so comparison ops can reuse one allocation. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Compile-time specialization of [Machine.eval_binop] for the operand
   shapes the fully-inlined arms below don't cover: the all-integer arms
   run inline; anything else (mixed types, division by zero) delegates
   to the interpreter's own [eval_binop], so coercion faults and their
   messages stay byte-identical. *)
let binop_fn (op : Instr.binop) : Value.t -> Value.t -> Value.t =
  match op with
  | Instr.Add -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> Value.Int (x + y)
        | _ -> Machine.eval_binop op a b)
  | Instr.Sub -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> Value.Int (x - y)
        | _ -> Machine.eval_binop op a b)
  | Instr.Mul -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> Value.Int (x * y)
        | _ -> Machine.eval_binop op a b)
  | Instr.Div -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y when y <> 0 -> Value.Int (x / y)
        | _ -> Machine.eval_binop op a b)
  | Instr.Mod -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y when y <> 0 -> Value.Int (x mod y)
        | _ -> Machine.eval_binop op a b)
  | Instr.Lt -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> if x < y then vtrue else vfalse
        | _ -> Machine.eval_binop op a b)
  | Instr.Le -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> if x <= y then vtrue else vfalse
        | _ -> Machine.eval_binop op a b)
  | Instr.Gt -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> if x > y then vtrue else vfalse
        | _ -> Machine.eval_binop op a b)
  | Instr.Ge -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> if x >= y then vtrue else vfalse
        | _ -> Machine.eval_binop op a b)
  | Instr.Eq -> (fun a b -> if Value.equal a b then vtrue else vfalse)
  | Instr.Ne -> (fun a b -> if Value.equal a b then vfalse else vtrue)
  | Instr.And | Instr.Or -> Machine.eval_binop op

(* How an instruction participates in the closure arrays.

   [C_line] ops — the fully-inlined register-only bodies — fuse into
   *segments*: maximal consecutive runs of them, over which the chain
   form does batched step accounting. The segment's entry closure adds
   the whole segment's step count to [m.step] up front ([pre]) and no
   closure in the segment touches [fr.idx] or [m.step] again until the
   segment's end; a fault site rolls the batch back by its static
   distance to the segment end ([fix], counting itself) and parks
   [fr.idx] on the faulting instruction, restoring exactly the state
   the per-step engines would show. A [C_line] op must never be
   dynamically destroying: the destroying preamble reads [m.step]
   mid-segment, where the batch has it ahead of time.

   [C_self] ops — anything with a complex body (hashtables, heap,
   rendering) — keep per-step accounting: the body counts its own step
   and moves [fr.idx] itself, entered through a [self_idx] prologue
   that re-parks [fr.idx] on the op (chains leave it stale inside
   segments), so their fault attribution works unchanged.

   Builders take care to return a closure from under a [let] so the
   partial application is a real closure, not a [caml_curry]
   trampoline. *)
type comp =
  | C_sched  (** schedulable: a stopper in both forms *)
  | C_probe
      (** a memory access under a race probe: a stopper in both forms,
          run through [Machine.run_thread_step] for its probe event *)
  | C_line of (pre:int -> fix:int -> chain -> chain)
      (** instantiated three ways: segment entry ([pre = fix] = steps to
          the segment end), segment interior ([pre = 0]), and
          single-step ([pre = fix = 0], continuation [one_halt]) *)
  | C_self of (chain -> chain)
  | C_halt of chain
      (** one closure serves both forms (calls and always-faulting ops:
          the chain ends with the op either way) *)

(* Cold continuations for fused-segment links. A fault must land with
   [fr.idx] at the faulting instruction and the segment's batched step
   count rolled back to the instructions actually retired: [fix] is the
   faulting op's static distance to its segment end, itself included —
   exactly the batched steps that did *not* happen. *)
let seg_fault k fix m (fr : Thread.frame) msg =
  fr.Thread.idx <- k;
  if fix <> 0 then m.Machine.step <- m.Machine.step - fix;
  raise (Machine.Fault msg)

let seg_binop k fix op m fr va vb =
  try Machine.eval_binop op va vb
  with Machine.Fault msg -> seg_fault k fix m fr msg

(* The single-step continuation of a [C_line] body: retire exactly this
   instruction, exactly as the per-step engines account it. *)
let one_halt j : chain =
 fun m _ fr ->
  fr.Thread.idx <- j;
  m.Machine.step <- m.Machine.step + 1;
  t_single

(* A schedulable-op stopper: park the program point on the op (chains
   leave [fr.idx] stale inside segments) and hand back to the driver. *)
let stop_at k : chain =
 fun _ _ fr ->
  fr.Thread.idx <- k;
  t_sched

(* A race-probe stopper: same parking, but the op cannot change any
   thread's eligibility, so the driver may keep the window open. *)
let probe_at k : chain =
 fun _ _ fr ->
  fr.Thread.idx <- k;
  t_generic

(* [C_self]/[C_halt] prologue: re-park [fr.idx] on the op so bodies that
   advance it relatively, read it (checkpoints) or fault through getters
   see exactly the per-step engines' value. *)
let self_idx k (body : chain) : chain =
 fun m th fr ->
  fr.Thread.idx <- k;
  body m th fr

(* [exec_instr]'s destroying preamble, compiled in only where the static
   flag is set. Applied to inline ops only: descriptor ops run the
   preamble inside [Machine.exec_instr] itself. Links bump [m.step]
   after it runs, so [last_destroy_step] matches the per-step engines
   exactly. *)
let destroying_link (i : Link.linstr) (body : chain) : chain =
  if not i.Link.li_destroying then body
  else
    fun m th fr ->
      th.Thread.last_destroy_step <- m.Machine.step;
      (match th.Thread.recovering with
      | None -> ()
      | Some _ -> Machine.close_episode m th);
      body m th fr

(* Fresh register files for compiled calls. The unrolled sizes compile
   to inline allocations; [Array.make] is an out-of-line C call, which
   is most of a small frame's cost. *)
let new_regs n =
  let u = Thread.undef in
  match n with
  | 1 -> [| u |]
  | 2 -> [| u; u |]
  | 3 -> [| u; u; u |]
  | 4 -> [| u; u; u; u |]
  | 5 -> [| u; u; u; u; u |]
  | 6 -> [| u; u; u; u; u; u |]
  | 7 -> [| u; u; u; u; u; u; u |]
  | 8 -> [| u; u; u; u; u; u; u; u |]
  | _ -> Array.make n u

(* Which ops stop a chain: the schedulable ones always, the memory
   accesses — whose race-probe events [exec_instr] emits — under a
   probe. *)
let schedulable (op : Link.lop) =
  match op with
  | Link.L_lock _ | Link.L_timed_lock _ | Link.L_unlock _ | Link.L_spawn _
  | Link.L_join _ | Link.L_sleep _ | Link.L_wait _ | Link.L_timed_wait _
  | Link.L_notify _ | Link.L_try_recover _ | Link.L_fail_stop _ ->
      true
  | _ -> false

let memory_access (op : Link.lop) =
  match op with
  | Link.L_load_global _ | Link.L_load_stack _ | Link.L_store_global _
  | Link.L_store_stack _ | Link.L_load_idx _ | Link.L_store_idx _
  | Link.L_free _ ->
      true
  | _ -> false

let compile_comp ~probe (prog : program) (f : Link.lfunc)
    (lp : Link.program) (k : int) (i : Link.linstr) : comp =
  if schedulable i.Link.li_op then C_sched
  else if probe && memory_access i.Link.li_op then C_probe
  else
  match i.Link.li_op with
  | Link.L_lock _ | Link.L_timed_lock _ | Link.L_unlock _ | Link.L_spawn _
  | Link.L_join _ | Link.L_sleep _ | Link.L_wait _ | Link.L_timed_wait _
  | Link.L_notify _ | Link.L_try_recover _ | Link.L_fail_stop _ ->
      assert false (* [schedulable] *)
  (* -- straight-line ops: compiled to code --------------------------- *)
  | Link.L_move (r, a) -> (
      match a with
      | Link.L_const v ->
          C_line
            (fun ~pre ~fix:_ next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                fr.Thread.regs.(r) <- v;
                next m th fr
              in
              l)
      | Link.L_reg ia ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let v = fr.Thread.regs.(ia) in
                if v == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <- v;
                next m th fr
              in
              l))
  | Link.L_binop (r, op, a, b) -> (
      (* operands bind right-to-left, like [eval_binop op (eval fr a)
         (eval fr b)] in the interpreter; every specialization below
         keeps that order (b's undefined-register fault wins over a's).
         The arithmetic/comparison ops on the two hot operand shapes are
         inlined outright — non-[Int] operands and division by zero
         delegate to [Machine.eval_binop] for byte-identical faults. *)
      match (a, b, op) with
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Add ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> Value.Int (x + y)
                  | _ -> seg_binop k fix Instr.Add m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Sub ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> Value.Int (x - y)
                  | _ -> seg_binop k fix Instr.Sub m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Mul ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> Value.Int (x * y)
                  | _ -> seg_binop k fix Instr.Mul m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Div ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x when y <> 0 -> Value.Int (x / y)
                  | _ -> seg_binop k fix Instr.Div m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Mod ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x when y <> 0 -> Value.Int (x mod y)
                  | _ -> seg_binop k fix Instr.Mod m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Lt ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> if x < y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Lt m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Le ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> if x <= y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Le m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Gt ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> if x > y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Gt m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_const (Value.Int y as vb), Instr.Ge ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match va with
                  | Value.Int x -> if x >= y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Ge m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Add ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> Value.Int (x + y)
                  | _ -> seg_binop k fix Instr.Add m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Sub ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> Value.Int (x - y)
                  | _ -> seg_binop k fix Instr.Sub m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Mul ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> Value.Int (x * y)
                  | _ -> seg_binop k fix Instr.Mul m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Div ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y when y <> 0 -> Value.Int (x / y)
                  | _ -> seg_binop k fix Instr.Div m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Mod ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y when y <> 0 -> Value.Int (x mod y)
                  | _ -> seg_binop k fix Instr.Mod m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Lt ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> if x < y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Lt m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Le ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> if x <= y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Le m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Gt ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> if x > y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Gt m fr va vb);
                next m th fr
              in
              l)
      | Link.L_reg ia, Link.L_reg ib, Instr.Ge ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                fr.Thread.regs.(r) <-
                  (match (va, vb) with
                  | Value.Int x, Value.Int y -> if x >= y then vtrue else vfalse
                  | _ -> seg_binop k fix Instr.Ge m fr va vb);
                next m th fr
              in
              l)
      | _ -> (
          let bf = binop_fn op in
          match (a, b) with
          | Link.L_reg ia, Link.L_const vb ->
              C_line
                (fun ~pre ~fix next ->
                  let l m th fr =
                    if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                    let va = fr.Thread.regs.(ia) in
                    if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                    fr.Thread.regs.(r) <-
                      (try bf va vb with Machine.Fault emsg -> seg_fault k fix m fr emsg);
                    next m th fr
                  in
                  l)
          | Link.L_reg ia, Link.L_reg ib ->
              C_line
                (fun ~pre ~fix next ->
                  let l m th fr =
                    if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                    let vb = fr.Thread.regs.(ib) in
                    if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                    let va = fr.Thread.regs.(ia) in
                    if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                    fr.Thread.regs.(r) <-
                      (try bf va vb with Machine.Fault emsg -> seg_fault k fix m fr emsg);
                    next m th fr
                  in
                  l)
          | _ ->
              let ga = getter f a and gb = getter f b in
              C_self
                (fun next ->
                  let l m th fr =
                    let vb = gb fr in
                    let va = ga fr in
                    fr.Thread.regs.(r) <- bf va vb;
                    fr.Thread.idx <- fr.Thread.idx + 1;
                    m.Machine.step <- m.Machine.step + 1;
                    next m th fr
                  in
                  l)))
  | Link.L_unop (r, op, a) -> (
      match a with
      | Link.L_reg ia ->
          C_self
            (fun next ->
              let l m th fr =
                let v = fr.Thread.regs.(ia) in
                if v == Thread.undef then raise (Machine.Fault (undef_msg f ia));
                fr.Thread.regs.(r) <- Machine.eval_unop op v;
                fr.Thread.idx <- fr.Thread.idx + 1;
                m.Machine.step <- m.Machine.step + 1;
                next m th fr
              in
              l)
      | _ ->
          let ga = getter f a in
          C_self
            (fun next ->
              let l m th fr =
                fr.Thread.regs.(r) <- Machine.eval_unop op (ga fr);
                fr.Thread.idx <- fr.Thread.idx + 1;
                m.Machine.step <- m.Machine.step + 1;
                next m th fr
              in
              l))
  | Link.L_load_global (r, g) ->
      let msg = "load of undeclared global " ^ g in
      C_line
        (fun ~pre ~fix next ->
          let l m th fr =
            if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
            (match Hashtbl.find_opt m.Machine.globals g with
            | Some v -> fr.Thread.regs.(r) <- v
            | None -> seg_fault k fix m fr msg);
            next m th fr
          in
          l)
  | Link.L_load_stack (r, s) ->
      C_line
        (fun ~pre ~fix:_ next ->
          let l m th fr =
            if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
            fr.Thread.regs.(r) <-
              (match fr.Thread.stack_vars with
              | None -> Value.zero
              | Some h ->
                  Option.value ~default:Value.zero (Hashtbl.find_opt h s));
            next m th fr
          in
          l)
  | Link.L_store_global (g, a) ->
      let ga = getter f a in
      let msg = "store to undeclared global " ^ g in
      C_self
        (fun next ->
          let l m th fr =
            if Hashtbl.mem m.Machine.globals g then begin
              Hashtbl.replace m.Machine.globals g (ga fr);
              fr.Thread.idx <- fr.Thread.idx + 1;
              m.Machine.step <- m.Machine.step + 1;
              next m th fr
            end
            else raise (Machine.Fault msg)
          in
          l)
  | Link.L_store_stack (s, a) ->
      let ga = getter f a in
      C_self
        (fun next ->
          let l m th fr =
            Hashtbl.replace (Thread.stack_tbl fr) s (ga fr);
            fr.Thread.idx <- fr.Thread.idx + 1;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_load_idx (r, p, ix) ->
      let gp = getter f p and gix = getter f ix in
      C_self
        (fun next ->
          let l m th fr =
            let iv = Machine.as_int (gix fr) in
            let pv = gp fr in
            match Heap.load m.Machine.heap pv iv with
            | Ok v ->
                fr.Thread.regs.(r) <- v;
                fr.Thread.idx <- fr.Thread.idx + 1;
                m.Machine.step <- m.Machine.step + 1;
                next m th fr
            | Error e -> raise (Machine.Fault e)
          in
          l)
  | Link.L_store_idx (p, ix, v) ->
      let gp = getter f p and gix = getter f ix and gv = getter f v in
      C_self
        (fun next ->
          let l m th fr =
            let vv = gv fr in
            let iv = Machine.as_int (gix fr) in
            let pv = gp fr in
            match Heap.store m.Machine.heap pv iv vv with
            | Ok () ->
                fr.Thread.idx <- fr.Thread.idx + 1;
                m.Machine.step <- m.Machine.step + 1;
                next m th fr
            | Error e -> raise (Machine.Fault e)
          in
          l)
  | Link.L_alloc (r, n) ->
      let gn = getter f n in
      C_self
        (fun next ->
          let l m th fr =
            let ptr = Heap.alloc m.Machine.heap (Machine.as_int (gn fr)) in
            Thread.log_acquisition th (Thread.R_block ptr.Value.block);
            fr.Thread.regs.(r) <- Value.Ptr ptr;
            fr.Thread.idx <- fr.Thread.idx + 1;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_free p ->
      let gp = getter f p in
      C_self
        (fun next ->
          let l m th fr =
            let pv = gp fr in
            match Heap.free m.Machine.heap pv with
            | Ok () ->
                fr.Thread.idx <- fr.Thread.idx + 1;
                m.Machine.step <- m.Machine.step + 1;
                next m th fr
            | Error e -> raise (Machine.Fault e)
          in
          l)
  | Link.L_assert { cond; msg; oracle } -> (
      let kind = if oracle then Instr.Wrong_output else Instr.Assert_fail in
      let iid = i.Link.li_iid in
      (* the failure arm parks [fr.idx] on the assert and rolls the
         batch back before [set_failure] reads [m.step], then counts the
         assert's own step — the per-step engines' exact ordering *)
      match cond with
      | Link.L_reg ci ->
          C_line
            (fun ~pre ~fix next ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let v = fr.Thread.regs.(ci) in
                if v == Thread.undef then seg_fault k fix m fr (undef_msg f ci);
                if Value.is_true v then next m th fr
                else begin
                  fr.Thread.idx <- k;
                  if fix <> 0 then m.Machine.step <- m.Machine.step - fix;
                  Machine.set_failure m ~kind ~site_id:None ~iid:(Some iid)
                    ~tid:th.Thread.tid ~msg;
                  m.Machine.step <- m.Machine.step + 1;
                  t_failed
                end
              in
              l)
      | Link.L_const v ->
          if Value.is_true v then
            C_line
              (fun ~pre ~fix:_ next ->
                let l m th fr =
                  if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                  next m th fr
                in
                l)
          else
            C_line
              (fun ~pre ~fix _next ->
                let l m th fr =
                  if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                  fr.Thread.idx <- k;
                  if fix <> 0 then m.Machine.step <- m.Machine.step - fix;
                  Machine.set_failure m ~kind ~site_id:None ~iid:(Some iid)
                    ~tid:th.Thread.tid ~msg;
                  m.Machine.step <- m.Machine.step + 1;
                  t_failed
                in
                l))
  | Link.L_output { fmt; args } ->
      (* the trace sink is off by construction wherever compiled code
         runs *)
      C_self
        (fun next ->
          let l m th fr =
            let text =
              Machine.render_output fmt (Machine.eval_arg_list fr args)
            in
            m.Machine.outputs <- text :: m.Machine.outputs;
            m.Machine.stats.Stats.outputs <- m.Machine.stats.Stats.outputs + 1;
            fr.Thread.idx <- fr.Thread.idx + 1;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_call { ret; fid; fname; args } ->
      if fid < 0 then
        let msg = Format.asprintf "call to unknown %a" Fname.pp fname in
        (* raises with [fr.idx] still at the call, so the fault arm
           attributes the step and the iid to the right instruction; the
           value of [fr.idx] after an unrecovered fault is unobservable *)
        C_halt
          (fun _ _ fr ->
            fr.Thread.idx <- k;
            ignore (Machine.eval_args fr args : Value.t array);
            raise (Machine.Fault msg))
      else
        let callee = lp.Link.lp_funcs.(fid) in
        if Array.length args <> callee.Link.lf_nparams then
          (* arity mismatch: keep [make_frame]'s Invalid_argument, raised
             after argument evaluation exactly as the interpreter does *)
          C_halt
            (fun m th fr ->
              fr.Thread.idx <- k;
              let argv = Machine.eval_args fr args in
              fr.Thread.idx <- k + 1;
              Thread.push_frame th
                (Thread.make_frame callee ~args:argv ~ret_reg:ret);
              m.Machine.step <- m.Machine.step + 1;
              t_refresh)
        else
          (* Arguments are evaluated left-to-right like [eval_args] and
             written through the param-index table like [make_frame]
             (duplicate parameter names keep last-binding-wins) — but
             straight into the new frame's registers, skipping the argv
             array; the common arities are unrolled. The link then
             chains into the callee's entry block when the window budget
             covers it: [callee_cbs] aliases the program array slot that
             [compile] fills in, so mutual recursion needs no patching
             pass. *)
          let nregs = max 1 callee.Link.lf_nregs in
          let entry_ix = callee.Link.lf_entry in
          let entry = callee.Link.lf_blocks.(entry_ix) in
          let callee_cbs = prog.(fid) in
          let nargs = Array.length args in
          if nargs = 0 then
            C_halt
              (fun m th fr ->
                let regs = new_regs nregs in
                fr.Thread.idx <- k + 1;
                let nf =
                  {
                    Thread.func = callee;
                    block = entry;
                    idx = 0;
                    regs;
                    stack_vars = None;
                    ret_reg = ret;
                  }
                in
                th.Thread.stack <- nf :: th.Thread.stack;
                th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                m.Machine.step <- m.Machine.step + 1;
                let cb = callee_cbs.(entry_ix) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th nf
                else t_refresh)
          else if nargs = 1 then
            let s0 = callee.Link.lf_param_index.(0) in
            (match args.(0) with
            | Link.L_const v0 ->
                C_halt
                  (fun m th fr ->
                    let regs = new_regs nregs in
                    regs.(s0) <- v0;
                    fr.Thread.idx <- k + 1;
                    let nf =
                      {
                        Thread.func = callee;
                        block = entry;
                        idx = 0;
                        regs;
                        stack_vars = None;
                        ret_reg = ret;
                      }
                    in
                    th.Thread.stack <- nf :: th.Thread.stack;
                    th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                    m.Machine.step <- m.Machine.step + 1;
                    let cb = callee_cbs.(entry_ix) in
                    if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                      cb.cb_chain.(0) m th nf
                    else t_refresh)
            | Link.L_reg ia ->
                C_halt
                  (fun m th fr ->
                    let v0 = fr.Thread.regs.(ia) in
                    if v0 == Thread.undef then begin
                      fr.Thread.idx <- k;
                      raise (Machine.Fault (undef_msg f ia))
                    end;
                    let regs = new_regs nregs in
                    regs.(s0) <- v0;
                    fr.Thread.idx <- k + 1;
                    let nf =
                      {
                        Thread.func = callee;
                        block = entry;
                        idx = 0;
                        regs;
                        stack_vars = None;
                        ret_reg = ret;
                      }
                    in
                    th.Thread.stack <- nf :: th.Thread.stack;
                    th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                    m.Machine.step <- m.Machine.step + 1;
                    let cb = callee_cbs.(entry_ix) in
                    if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                      cb.cb_chain.(0) m th nf
                    else t_refresh))
          else if nargs = 2 then
            let s0 = callee.Link.lf_param_index.(0)
            and s1 = callee.Link.lf_param_index.(1) in
            (match (args.(0), args.(1)) with
            | Link.L_reg ia, Link.L_reg ib ->
                (* args are evaluated left-to-right, so arg 0's
                   undefined-register fault wins over arg 1's *)
                C_halt
                  (fun m th fr ->
                    let v0 = fr.Thread.regs.(ia) in
                    if v0 == Thread.undef then begin
                      fr.Thread.idx <- k;
                      raise (Machine.Fault (undef_msg f ia))
                    end;
                    let v1 = fr.Thread.regs.(ib) in
                    if v1 == Thread.undef then begin
                      fr.Thread.idx <- k;
                      raise (Machine.Fault (undef_msg f ib))
                    end;
                    let regs = new_regs nregs in
                    regs.(s0) <- v0;
                    regs.(s1) <- v1;
                    fr.Thread.idx <- k + 1;
                    let nf =
                      {
                        Thread.func = callee;
                        block = entry;
                        idx = 0;
                        regs;
                        stack_vars = None;
                        ret_reg = ret;
                      }
                    in
                    th.Thread.stack <- nf :: th.Thread.stack;
                    th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                    m.Machine.step <- m.Machine.step + 1;
                    let cb = callee_cbs.(entry_ix) in
                    if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                      cb.cb_chain.(0) m th nf
                    else t_refresh)
            | a0, a1 ->
                let g0 = getter f a0 and g1 = getter f a1 in
                C_halt
                  (fun m th fr ->
                    fr.Thread.idx <- k;
                    let regs = new_regs nregs in
                    regs.(s0) <- g0 fr;
                    regs.(s1) <- g1 fr;
                    fr.Thread.idx <- k + 1;
                    let nf =
                      {
                        Thread.func = callee;
                        block = entry;
                        idx = 0;
                        regs;
                        stack_vars = None;
                        ret_reg = ret;
                      }
                    in
                    th.Thread.stack <- nf :: th.Thread.stack;
                    th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                    m.Machine.step <- m.Machine.step + 1;
                    let cb = callee_cbs.(entry_ix) in
                    if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                      cb.cb_chain.(0) m th nf
                    else t_refresh))
          else
            let gets =
              Array.mapi
                (fun k a -> (callee.Link.lf_param_index.(k), getter f a))
                args
            in
            C_halt
              (fun m th fr ->
                fr.Thread.idx <- k;
                let regs = new_regs nregs in
                for j = 0 to Array.length gets - 1 do
                  let slot, g = gets.(j) in
                  regs.(slot) <- g fr
                done;
                fr.Thread.idx <- k + 1;
                let nf =
                  {
                    Thread.func = callee;
                    block = entry;
                    idx = 0;
                    regs;
                    stack_vars = None;
                    ret_reg = ret;
                  }
                in
                th.Thread.stack <- nf :: th.Thread.stack;
                th.Thread.stack_depth <- th.Thread.stack_depth + 1;
                m.Machine.step <- m.Machine.step + 1;
                let cb = callee_cbs.(entry_ix) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th nf
                else t_refresh)
  | Link.L_nop ->
      C_line
        (fun ~pre ~fix:_ next ->
          let l m th fr =
            if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
            next m th fr
          in
          l)
  | Link.L_checkpoint id ->
      C_self
        (fun next ->
          let l m th fr =
            th.Thread.region_counter <- th.Thread.region_counter + 1;
            fr.Thread.idx <- fr.Thread.idx + 1;
            th.Thread.checkpoint <-
              Some
                {
                  Thread.ck_depth = Thread.depth th;
                  ck_func = fr.Thread.func;
                  ck_block = fr.Thread.block.Link.lb_label;
                  ck_idx = fr.Thread.idx;
                  ck_regs = Array.copy fr.Thread.regs;
                  ck_counter = th.Thread.region_counter;
                  ck_step = m.Machine.step;
                };
            Stats.hit_checkpoint m.Machine.stats id;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_ptr_guard (r, p, ix) ->
      let gp = getter f p and gix = getter f ix in
      C_self
        (fun next ->
          let l m th fr =
            let iv = Machine.as_int (gix fr) in
            let pv = gp fr in
            fr.Thread.regs.(r) <- Value.Bool (Heap.valid m.Machine.heap pv iv);
            fr.Thread.idx <- fr.Thread.idx + 1;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)

(* Terminators. Jump and branch targets are static, so their links chain
   straight into the target block's compiled code (budget permitting);
   a return chains into the caller's resumption point, found
   dynamically. [L_exit] decides the program's outcome and stays a
   schedulable-op stopper. *)
let compile_term (prog : program) (f : Link.lfunc) (blk : Link.lblock) :
    chain option =
  (* Chains leave [fr.idx] stale inside fused segments, so any fault a
     terminator can raise must park the program point on the terminator
     slot first — moving [fr.idx] on success paths is already part of
     the transfer. *)
  let n = Array.length blk.Link.lb_instrs in
  match blk.Link.lb_term with
  | Link.L_jump t ->
      let tgt = f.Link.lf_blocks.(t) in
      let fcbs = prog.(f.Link.lf_id) in
      Some
        (fun m th fr ->
          fr.Thread.block <- tgt;
          fr.Thread.idx <- 0;
          m.Machine.step <- m.Machine.step + 1;
          let cb = fcbs.(t) in
          if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
            cb.cb_chain.(0) m th fr
          else t_refresh)
  | Link.L_branch (c, t, fl) ->
      let bt = f.Link.lf_blocks.(t) and bf = f.Link.lf_blocks.(fl) in
      let fcbs = prog.(f.Link.lf_id) in
      Some
        (match c with
        | Link.L_reg ic ->
            fun m th fr ->
              let v = fr.Thread.regs.(ic) in
              if v == Thread.undef then begin
                fr.Thread.idx <- n;
                raise (Machine.Fault (undef_msg f ic))
              end;
              let cond = Value.is_true v in
              (match th.Thread.recovering with
              | None -> ()
              | Some _ ->
                  if cond then
                    Machine.note_branch_taken m th fr ~taken_idx:t ~other_idx:fl
                  else
                    Machine.note_branch_taken m th fr ~taken_idx:fl
                      ~other_idx:t);
              if cond then begin
                fr.Thread.block <- bt;
                fr.Thread.idx <- 0;
                m.Machine.step <- m.Machine.step + 1;
                let cb = fcbs.(t) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th fr
                else t_refresh
              end
              else begin
                fr.Thread.block <- bf;
                fr.Thread.idx <- 0;
                m.Machine.step <- m.Machine.step + 1;
                let cb = fcbs.(fl) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th fr
                else t_refresh
              end
        | Link.L_const v ->
            (* the taken arm is static: compile only it *)
            let cond = Value.is_true v in
            let taken_idx = if cond then t else fl
            and other_idx = if cond then fl else t in
            let tgt = if cond then bt else bf in
            fun m th fr ->
              (match th.Thread.recovering with
              | None -> ()
              | Some _ ->
                  Machine.note_branch_taken m th fr ~taken_idx ~other_idx);
              fr.Thread.block <- tgt;
              fr.Thread.idx <- 0;
              m.Machine.step <- m.Machine.step + 1;
              let cb = fcbs.(taken_idx) in
              if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                cb.cb_chain.(0) m th fr
              else t_refresh)
  | Link.L_return v -> (
      (* The popping fast path replicates [Machine.do_return]'s caller
         arm; the last-frame (thread-death) case delegates to it. The
         value-expected fault is compiled inline — [do_return] raises it
         after popping, so raising from here would leave the fault arm
         looking at the caller's frame; emitting the failure directly
         keeps the bookkeeping (close episode, seg-fault record with no
         iid, step count) byte-identical. *)
      match v with
      | None ->
          Some
            (fun m th fr ->
              match th.Thread.stack with
              | _ :: (caller :: _ as rest) -> (
                  th.Thread.stack <- rest;
                  th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                  match fr.Thread.ret_reg with
                  | Some _ ->
                      Machine.close_episode m th;
                      Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None
                        ~iid:None ~tid:th.Thread.tid
                        ~msg:"function returned no value but one was expected";
                      m.Machine.step <- m.Machine.step + 1;
                      t_failed
                  | None ->
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh)
              | _ -> (
                  Machine.do_return m th None;
                  m.Machine.step <- m.Machine.step + 1;
                  match th.Thread.status with
                  | Thread.Done -> t_end
                  | _ -> t_refresh))
      | Some rv -> (
          match rv with
          | Link.L_reg ia ->
              Some
                (fun m th fr ->
                  let value = fr.Thread.regs.(ia) in
                  if value == Thread.undef then begin
                    fr.Thread.idx <- n;
                    raise (Machine.Fault (undef_msg f ia))
                  end;
                  match th.Thread.stack with
                  | _ :: (caller :: _ as rest) ->
                      th.Thread.stack <- rest;
                      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                      (match fr.Thread.ret_reg with
                      | None -> ()
                      | Some r -> caller.Thread.regs.(r) <- value);
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh
                  | _ -> (
                      Machine.do_return m th (Some value);
                      m.Machine.step <- m.Machine.step + 1;
                      match th.Thread.status with
                      | Thread.Done -> t_end
                      | _ -> t_refresh))
          | Link.L_const value ->
              Some
                (fun m th fr ->
                  match th.Thread.stack with
                  | _ :: (caller :: _ as rest) ->
                      th.Thread.stack <- rest;
                      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                      (match fr.Thread.ret_reg with
                      | None -> ()
                      | Some r -> caller.Thread.regs.(r) <- value);
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh
                  | _ -> (
                      Machine.do_return m th (Some value);
                      m.Machine.step <- m.Machine.step + 1;
                      match th.Thread.status with
                      | Thread.Done -> t_end
                      | _ -> t_refresh))))
  | Link.L_exit -> None

(* Compare-and-branch fusion: a block whose last instruction is an
   integer comparison feeding straight into the branch condition — the
   universal loop-guard shape — executes both in one closure, skipping
   the inter-link dispatch, the condition register's re-load and its
   truthiness test. The comparison result is still written to its
   register (it is observable), operand faults still park the program
   point on the comparison with the batch rolled back, and the
   single-step form stays unfused so strict single-stepping retires
   exactly one instruction. The comparison's step rides the segment
   batch; the branch counts its own, exactly as unfused. *)
let fuse_cmp_branch (prog : program) (f : Link.lfunc) (blk : Link.lblock)
    (k : int) : (pre:int -> fix:int -> chain) option =
  match (blk.Link.lb_instrs.(k).Link.li_op, blk.Link.lb_term) with
  | ( Link.L_binop (r, ((Instr.Lt | Instr.Le | Instr.Gt | Instr.Ge) as op), a, b),
      Link.L_branch (Link.L_reg rc, t, fl) )
    when rc = r ->
      let bt = f.Link.lf_blocks.(t) and bf = f.Link.lf_blocks.(fl) in
      let fcbs = prog.(f.Link.lf_id) in
      (* the op is a compile-time constant per closure, so the dispatch
         below is a perfectly predicted jump, not an indirect call *)
      let finish m th (fr : Thread.frame) cond =
        fr.Thread.regs.(r) <- (if cond then vtrue else vfalse);
        (match th.Thread.recovering with
        | None -> ()
        | Some _ ->
            if cond then
              Machine.note_branch_taken m th fr ~taken_idx:t ~other_idx:fl
            else Machine.note_branch_taken m th fr ~taken_idx:fl ~other_idx:t);
        if cond then begin
          fr.Thread.block <- bt;
          fr.Thread.idx <- 0;
          m.Machine.step <- m.Machine.step + 1;
          let cb = fcbs.(t) in
          if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
            cb.cb_chain.(0) m th fr
          else t_refresh
        end
        else begin
          fr.Thread.block <- bf;
          fr.Thread.idx <- 0;
          m.Machine.step <- m.Machine.step + 1;
          let cb = fcbs.(fl) in
          if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
            cb.cb_chain.(0) m th fr
          else t_refresh
        end
      in
      let icmp x y =
        match op with
        | Instr.Lt -> x < y
        | Instr.Le -> x <= y
        | Instr.Gt -> x > y
        | _ -> x >= y
      in
      (match (a, b) with
      | Link.L_reg ia, Link.L_const (Value.Int y as vb) ->
          Some
            (fun ~pre ~fix ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                let cond =
                  match va with
                  | Value.Int x -> icmp x y
                  | _ -> Value.is_true (seg_binop k fix op m fr va vb)
                in
                finish m th fr cond
              in
              l)
      | Link.L_reg ia, Link.L_reg ib ->
          Some
            (fun ~pre ~fix ->
              let l m th fr =
                if pre <> 0 then m.Machine.step <- m.Machine.step + pre;
                let vb = fr.Thread.regs.(ib) in
                if vb == Thread.undef then seg_fault k fix m fr (undef_msg f ib);
                let va = fr.Thread.regs.(ia) in
                if va == Thread.undef then seg_fault k fix m fr (undef_msg f ia);
                let cond =
                  match (va, vb) with
                  | Value.Int x, Value.Int y -> icmp x y
                  | _ -> Value.is_true (seg_binop k fix op m fr va vb)
                in
                finish m th fr cond
              in
              l)
      | _ -> None)
  | _ -> None

let compile_block ~probe (prog : program) (lp : Link.program)
    (f : Link.lfunc) (blk : Link.lblock) : cblock =
  let instrs = blk.Link.lb_instrs in
  let n = Array.length instrs in
  let comps =
    Array.init n (fun k -> compile_comp ~probe prog f lp k instrs.(k))
  in
  (* [ends.(k)]: index of the segment end from [k] — the first slot at or
     after [k] that is not [C_line]. The run [k .. ends.(k) - 1] is the
     batch a segment entry at [k] pre-counts. *)
  let ends = Array.make (n + 1) n in
  for k = n - 1 downto 0 do
    ends.(k) <- (match comps.(k) with C_line _ -> ends.(k + 1) | _ -> k)
  done;
  let chain = Array.make (n + 1) halt in
  let one = Array.make (n + 1) halt in
  (* [inner.(k)]: the chain form entered from inside a segment — batch
     already counted, so no pre-add. Outside segments it coincides with
     [chain.(k)]. *)
  let inner = Array.make (n + 1) halt in
  let need = Array.make (n + 1) 1 in
  let sched = Array.make (n + 1) false in
  (match compile_term prog f blk with
  | None ->
      sched.(n) <- true;
      let stop = stop_at n in
      chain.(n) <- stop;
      one.(n) <- stop
  | Some l ->
      chain.(n) <- l;
      one.(n) <- l);
  inner.(n) <- chain.(n);
  (* Chains are built back to front so each link captures its already-
     built successor: tails are shared, [O(n)] closures per block. *)
  for k = n - 1 downto 0 do
    let i = instrs.(k) in
    match comps.(k) with
    | C_sched | C_probe ->
        sched.(k) <- true;
        let stop =
          match comps.(k) with C_probe -> probe_at k | _ -> stop_at k
        in
        chain.(k) <- stop;
        one.(k) <- stop;
        inner.(k) <- stop
    | C_line mk ->
        (* never destroying: the destroying preamble reads [m.step],
           which is ahead of retirement inside a segment *)
        assert (not i.Link.li_destroying);
        let fx = ends.(k) - k in
        (match if k = n - 1 then fuse_cmp_branch prog f blk k else None with
        | Some fmk ->
            inner.(k) <- fmk ~pre:0 ~fix:fx;
            chain.(k) <- fmk ~pre:fx ~fix:fx
        | None ->
            inner.(k) <- mk ~pre:0 ~fix:fx inner.(k + 1);
            chain.(k) <- mk ~pre:fx ~fix:fx inner.(k + 1));
        one.(k) <- mk ~pre:0 ~fix:0 (one_halt (k + 1));
        need.(k) <- need.(k + 1) + 1
    | C_self mk ->
        let c = self_idx k (destroying_link i (mk chain.(k + 1))) in
        chain.(k) <- c;
        inner.(k) <- c;
        one.(k) <- self_idx k (destroying_link i (mk halt));
        need.(k) <- need.(k + 1) + 1
    | C_halt l ->
        let l = destroying_link i l in
        chain.(k) <- l;
        one.(k) <- l;
        inner.(k) <- l
        (* need stays 1: the link re-gates on [m.wbound] before chaining
           past its own step *)
  done;
  {
    cb_chain = chain;
    cb_one = one;
    cb_iids =
      Array.map (fun (j : Link.linstr) -> j.Link.li_iid) blk.Link.lb_instrs;
    cb_need = need;
    cb_sched = sched;
  }

(* Blocks are compiled when first entered a second time: most of a
   program never runs in a given execution (a catalog app runs 2-55% of
   its instructions), much of the rest runs once (set-up and
   tear-down), and compiling a block costs several times what
   interpreting it once does. Until then a block's slot holds a stub
   with the real stopper and iid tables and need 1. A cold stub sends
   every instruction to the generic step — [t_sched] for a schedulable
   op, which ends a window, [t_generic] for anything else, which does
   not — and counts the passes begun at its first instruction. On the
   second, it compiles the block, installs it in place of the stub and
   carries on with the real code, re-gating a chain on its real need so
   a window never runs past its budget. Threads racing through a stub
   may miscount its passes or compile it twice; either way they install
   equal code.

   Stubs are most of a cached image, so they carry no per-block
   closures: the two stub entries below are shared by every stub of the
   image and find their block from the frame — every transfer sets
   [fr.block] and [fr.idx] before entering a slot, and drivers call at
   them — and stubs of equal length share their entry and need
   arrays. [passes] counts per block, [-1] once its code is installed:
   a stale stub (one a driver fetched before the install) then runs the
   installed code. *)
let stubs ~probe (prog : program) (lp : Link.program) =
  let passes =
    Array.map
      (fun (f : Link.lfunc) -> Array.make (Array.length f.Link.lf_blocks) 0)
      lp.Link.lp_funcs
  in
  let hot (fr : Thread.frame) =
    let f = fr.Thread.func and blk = fr.Thread.block in
    let fid = f.Link.lf_id and b = blk.Link.lb_index in
    let ps = passes.(fid) in
    if ps.(b) < 0 then Some prog.(fid).(b)
    else begin
      if fr.Thread.idx = 0 then ps.(b) <- ps.(b) + 1;
      if ps.(b) < 2 then None
      else begin
        let cb = compile_block ~probe prog lp f blk in
        prog.(fid).(b) <- cb;
        ps.(b) <- -1;
        Some cb
      end
    end
  in
  (* where [compile_block] puts [t_sched] stoppers *)
  let cold (fr : Thread.frame) =
    let blk = fr.Thread.block and k = fr.Thread.idx in
    let ends_window =
      if k = Array.length blk.Link.lb_instrs then
        blk.Link.lb_term = Link.L_exit
      else schedulable blk.Link.lb_instrs.(k).Link.li_op
    in
    if ends_window then t_sched else t_generic
  in
  let go_chain : chain =
   fun m th fr ->
    match hot fr with
    | None -> cold fr
    | Some cb ->
        let i = fr.Thread.idx in
        if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound then
          cb.cb_chain.(i) m th fr
        else t_refresh
  in
  let go_one : chain =
   fun m th fr ->
    match hot fr with
    | None -> cold fr
    | Some cb -> cb.cb_one.(fr.Thread.idx) m th fr
  in
  let by_length = Hashtbl.create 16 in
  fun (blk : Link.lblock) : cblock ->
    let n = Array.length blk.Link.lb_instrs in
    let chain, one, need =
      match Hashtbl.find_opt by_length n with
      | Some entries -> entries
      | None ->
          let entries =
            ( Array.make (n + 1) go_chain,
              Array.make (n + 1) go_one,
              Array.make (n + 1) 1 )
          in
          Hashtbl.replace by_length n entries;
          entries
    in
    {
      cb_chain = chain;
      cb_one = one;
      cb_iids =
        Array.map (fun (j : Link.linstr) -> j.Link.li_iid) blk.Link.lb_instrs;
      cb_need = need;
      cb_sched =
        Array.init (n + 1) (fun k ->
            if k = n then blk.Link.lb_term = Link.L_exit
            else
              let op = blk.Link.lb_instrs.(k).Link.li_op in
              schedulable op || (probe && memory_access op));
    }

let compile_uncached ~probe (lp : Link.program) : program =
  (* Two phases so transfer links can capture their target function's
     cblock array before it is filled: the per-function arrays are
     allocated up front and populated in place (with stubs, replaced by
     code once hot), which handles (mutual) recursion with no
     runtime indirection beyond one array load. *)
  let prog =
    Array.map
      (fun (f : Link.lfunc) ->
        Array.make (Array.length f.Link.lf_blocks) dummy_cblock)
      lp.Link.lp_funcs
  in
  let stub = stubs ~probe prog lp in
  Array.iteri
    (fun fi (f : Link.lfunc) ->
      let fcbs = prog.(fi) in
      Array.iteri (fun bi blk -> fcbs.(bi) <- stub blk) f.Link.lf_blocks)
    lp.Link.lp_funcs;
  prog

(* The compiled code is machine-independent (closures take the machine as
   an argument), and a block's slot changes only once, from its stub to
   its code, so machines over the same linked image — which [Link]'s own
   memo already shares — reuse one code image: a code cache, keyed by physical identity of
   the linked image and by whether a race probe is present (the probe
   variant stops at memory accesses).

   Code is admitted to the cache on reuse: the first compile of an
   image only leaves a marker, the second keeps its code. A program
   parsed afresh and run once — a CLI [file] run, a pipeline pass — then
   leaves no code image behind (an image is an order of magnitude larger
   than the linked program), while repeated runs of one program pay a
   single extra compile. As with [Link.memo], the [Atomic.t] makes
   concurrent compiles safe — a racing publish can drop an entry
   (costing a recompile), never corrupt one. *)
let memo : (Link.program * bool * program option) list Atomic.t =
  Atomic.make []

let memo_max = 256

let truncate n l =
  if List.length l <= n then l else List.filteri (fun i _ -> i < n) l

let compile ?(probe = false) (lp : Link.program) : program =
  let same (lp', p', _) = lp' == lp && p' = probe in
  let entries = Atomic.get memo in
  match List.find_opt same entries with
  | Some (_, _, Some code) -> code
  | seen ->
      let code = compile_uncached ~probe lp in
      let keep = if seen = None then None else Some code in
      Atomic.set memo
        (truncate memo_max
           ((lp, probe, keep) :: List.filter (fun e -> not (same e)) entries));
      code
