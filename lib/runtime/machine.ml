(* The Mir interpreter with the ConAir recovery runtime built in — the
   *pre-resolved* engine.

   [create] runs the [Link] pass once: register names become dense indices
   into a per-frame [Value.t array], jump labels and call targets become
   array indices, and the hardening metadata's fail-arm labels are
   annotations on the blocks themselves. The step loop then never looks a
   name up: no [Func.find_block], no [Program.find_func], no
   [Reg.Map.find_opt], and no per-step fold over the thread table — the
   scheduler keeps a dense array of live threads, maintained at spawn and
   death.

   One scheduler step executes one instruction (or terminator) of one
   thread. The recovery pseudo-instructions inserted by the transformation
   are interpreted here:

   - [Checkpoint]: bump the region counter and save the register image +
     program point into the thread's single checkpoint slot (an
     [Array.copy] blit);
   - [Try_recover]: if a checkpoint exists and the per-site retry budget is
     not exhausted, compensate (release locks / free blocks acquired in the
     current region, §4.1), verify the rollback-safety invariant if asked,
     restore the register image and jump back — otherwise fall through to
     the [Fail_stop];
   - [Timed_lock]: block with a timeout measured in scheduler steps and
     report success/timeout in a register.

   Unhardened programs fail exactly where hardened ones would recover:
   asserts stop the program, invalid dereferences are segmentation faults,
   and a configuration where every live thread is blocked is a hang.

   Semantics are bit-for-bit those of the original map-based interpreter,
   which survives as [Ref_machine]: same outcomes, outputs, step counts,
   traces, statistics and random-stream consumption, enforced by the
   differential test over the bugbench catalog. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

(** How a deadlock is noticed at a hardened lock site (§3.1.1: "ConAir
    can work with any deadlock-detection mechanism"). [Timeout_based] is
    the paper's prototype (MySQL-style lock timeouts); [Wait_graph]
    follows the owner chain of the contended lock and reports a deadlock
    the moment a cycle closes (Jula et al.-style), so recovery starts
    immediately instead of after the timeout. *)
type deadlock_detection = Timeout_based | Wait_graph

type config = {
  policy : Sched.policy;
  fuel : int;  (** scheduler-step budget before giving up *)
  max_retries : int;  (** paper default: one million *)
  deadlock_detection : deadlock_detection;
  deadlock_backoff : int;
      (** max random sleep after a deadlock rollback (livelock avoidance) *)
  verify_rollbacks : bool;
      (** check at every rollback that no destroying instruction executed
          since the checkpoint (the static analysis' safety invariant) *)
  perturb_timing : bool;
      (** randomize [Sleep] durations (in [0..n]) and stagger thread
          startup — the Rx-style "environment change during reexecution"
          baselines rely on; never used by ConAir itself *)
  spawn_jitter : int;
      (** max random startup delay for spawned threads when
          [perturb_timing] is on (a restarted process never reproduces the
          original thread-creation timing) *)
  profile_sites : bool;
      (** record per-instruction execution counts (ConSeq-style
          well-tested-site profiling, §3.4); off by default *)
}

let default_config =
  {
    policy = Sched.Round_robin;
    fuel = 2_000_000;
    max_retries = 1_000_000;
    deadlock_detection = Timeout_based;
    deadlock_backoff = 16;
    verify_rollbacks = true;
    perturb_timing = false;
    spawn_jitter = 150;
    profile_sites = false;
  }

(** Metadata from the hardening pass: fail-arm labels per site, used to
    detect that a recovering thread has finally passed its failure site.
    [fail_index] is the same mapping pre-resolved by [Harden.apply]; the
    link pass consumes it directly. *)
type meta = {
  fail_blocks : (Label.t * int) list;
  fail_index : (string, int) Hashtbl.t;
}

let meta_of_harden (h : Conair_transform.Harden.t) =
  { fail_blocks = h.site_fail_blocks; fail_index = h.fail_block_index }

exception Fault of string
(** Internal: an unrecovered runtime fault of the current thread. *)

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
  mutable step : int;
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

(* --- the live-thread array ----------------------------------------- *)

let add_live m th =
  let n = m.live_n in
  if n >= Array.length m.live then begin
    let cap = max 4 (2 * n) in
    let live = Array.make cap th in
    Array.blit m.live 0 live 0 n;
    m.live <- live;
    let ready = Array.make cap 0 in
    Array.blit m.ready 0 ready 0 (Array.length m.ready);
    m.ready <- ready
  end;
  m.live.(n) <- th;
  m.live_n <- n + 1

(* Death is rare (thread exit, program failure); a linear scan + shift
   keeps the array dense and tid-sorted. *)
let remove_live m (th : Thread.t) =
  let n = m.live_n in
  let i = ref 0 in
  while !i < n && m.live.(!i) != th do incr i done;
  if !i < n then begin
    for j = !i to n - 2 do
      m.live.(j) <- m.live.(j + 1)
    done;
    m.live_n <- n - 1
  end

let rebuild_live m =
  m.live_n <- 0;
  Hashtbl.fold
    (fun tid th acc -> if Thread.is_live th then (tid, th) :: acc else acc)
    m.threads []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, th) -> add_live m th)

(* ------------------------------------------------------------------- *)

let link ?meta prog =
  match meta with
  | Some mt -> Link.link ~fail_index:mt.fail_index prog
  | None -> Link.link prog

let create ?(config = default_config) ?meta ?(hooks = Hooks.none)
    (prog : Program.t) =
  let linked = link ?meta prog in
  let globals = Hashtbl.create 32 in
  List.iter (fun (g, v) -> Hashtbl.replace globals g v) prog.globals;
  let m =
    {
      prog;
      linked;
      config;
      meta;
      globals;
      heap = Heap.create ();
      locks = Locks.create prog.mutexes;
      threads = Hashtbl.create 8;
      next_tid = 0;
      step = 0;
      outputs = [];
      stats = Stats.create ();
      sched = Sched.create config.policy;
      outcome = None;
      trace = hooks.Hooks.hb_trace;
      prof = hooks.Hooks.hb_profile;
      race = hooks.Hooks.hb_race;
      flight = hooks.Hooks.hb_flight;
      live = [||];
      live_n = 0;
      ready = [||];
      wbound = 0;
    }
  in
  Sched.set_tap ?run:hooks.Hooks.hb_tap_run m.sched hooks.Hooks.hb_tap;
  Sched.set_feed ?run:hooks.Hooks.hb_feed_run m.sched hooks.Hooks.hb_feed;
  let main = Link.func_by_id linked linked.Link.lp_main in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th = Thread.create ~tid main ~args:[||] in
  Hashtbl.replace m.threads tid th;
  add_live m th;
  m

let outputs m = List.rev m.outputs
let stats m = m.stats

(** The machine's six hook slots, bundled for [Hooks.install]. *)
let hooks m =
  {
    Hooks.ht_trace = (fun s -> m.trace <- s);
    ht_profile = (fun p -> m.prof <- p);
    ht_race = (fun p -> m.race <- p);
    ht_flight = (fun f -> m.flight <- f);
    ht_sched = m.sched;
  }

let flight_event m ~kind ~tid ~arg ~detail =
  match m.flight with
  | None -> ()
  | Some fl -> Flight_ring.event fl ~kind ~step:m.step ~tid ~arg ~detail

let trace m ev =
  match m.trace with None -> () | Some sink -> Trace.record sink ev

let thread m tid = Hashtbl.find m.threads tid
let live_threads m = List.init m.live_n (fun i -> m.live.(i).Thread.tid)

(* Per-thread post-mortem view for diagnostic bundles: every thread ever
   spawned (the table keeps finished ones), its status rendered to an
   engine-independent string, and the locks it holds. *)
let thread_summaries m =
  Hashtbl.fold
    (fun tid (th : Thread.t) acc ->
      let status =
        match th.Thread.status with
        | Thread.Runnable -> "runnable"
        | Thread.Sleeping until -> "sleeping:" ^ string_of_int until
        | Thread.Blocked_lock { name; _ } -> "blocked_lock:" ^ name
        | Thread.Blocked_event { name; _ } -> "blocked_event:" ^ name
        | Thread.Blocked_join t -> "blocked_join:" ^ string_of_int t
        | Thread.Done -> "done"
        | Thread.Failed -> "failed"
      in
      (tid, status, Locks.held_by m.locks ~tid) :: acc)
    m.threads []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let thread_frames m tid =
  match Hashtbl.find_opt m.threads tid with
  | None -> None
  | Some th ->
      Some
        (List.map
           (fun (fr : Thread.frame) ->
             let blk = fr.Thread.block in
             ( fr.Thread.func.Link.lf_qname,
               blk.Link.lb_label_name,
               fr.Thread.idx,
               if fr.Thread.idx < Array.length blk.Link.lb_instrs then
                 Some blk.Link.lb_instrs.(fr.Thread.idx).Link.li_iid
               else None ))
           th.Thread.stack)

(* --- race-probe emission ------------------------------------------- *)
(* Each helper is one [match] when no probe is installed; the event
   payloads (stacks, locksets, address values) are only built inside the
   [Some] branch, so the uninstrumented hot path allocates nothing. *)

let race_stack (th : Thread.t) =
  List.map
    (fun (f : Thread.frame) -> f.Thread.func.Link.lf_qname)
    th.Thread.stack

let race_access m (th : Thread.t) (i : Link.linstr) kind addr =
  match m.race with
  | None -> ()
  | Some p ->
      let fr = Thread.top th in
      p.Race_probe.rp_access ~step:m.step ~tid:th.Thread.tid ~iid:i.Link.li_iid
        ~stack:(race_stack th) ~block:fr.Thread.block.Link.lb_label_name ~kind
        ~addr
        ~locks:(Locks.held_by m.locks ~tid:th.Thread.tid)

let race_global m th i kind g =
  match m.race with
  | None -> ()
  | Some _ -> race_access m th i kind (Race_probe.A_global g)

let race_slot m (th : Thread.t) i kind s =
  match m.race with
  | None -> ()
  | Some _ -> race_access m th i kind (Race_probe.A_slot (th.Thread.tid, s))

(* Heap accesses are classified by the *attempted* cell; non-pointer
   operands fault without designating an address and emit nothing. *)
let race_cell m th i kind pv idx =
  match m.race with
  | None -> ()
  | Some _ -> (
      match pv with
      | Value.Ptr { Value.block; offset } ->
          race_access m th i kind (Race_probe.A_cell (block, offset + idx))
      | _ -> ())

let race_free m th i pv =
  match m.race with
  | None -> ()
  | Some _ -> (
      match pv with
      | Value.Ptr { Value.block; _ } ->
          race_access m th i Race_probe.Write (Race_probe.A_block block)
      | _ -> ())

let race_acquire m (th : Thread.t) (i : Link.linstr) name =
  match m.race with
  | None -> ()
  | Some p ->
      p.Race_probe.rp_acquire ~step:m.step ~tid:th.Thread.tid
        ~iid:i.Link.li_iid ~lock:name
        ~locks:(Locks.held_by m.locks ~tid:th.Thread.tid)

let race_request m (th : Thread.t) (i : Link.linstr) name =
  match m.race with
  | None -> ()
  | Some p ->
      p.Race_probe.rp_request ~step:m.step ~tid:th.Thread.tid
        ~iid:i.Link.li_iid ~lock:name
        ~locks:(Locks.held_by m.locks ~tid:th.Thread.tid)

let race_release m (th : Thread.t) name =
  match m.race with
  | None -> ()
  | Some p -> p.Race_probe.rp_release ~step:m.step ~tid:th.Thread.tid ~lock:name

(* ------------------------------------------------------------------ *)
(* Evaluation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let eval_reg (fr : Thread.frame) i =
  let v = fr.regs.(i) in
  if v == Thread.undef then
    raise
      (Fault
         (Format.asprintf "use of undefined register %a" Reg.pp
            fr.func.Link.lf_reg_names.(i)))
  else v

let eval (fr : Thread.frame) = function
  | Link.L_reg i -> eval_reg fr i
  | Link.L_const v -> v

(* Left-to-right, like the operand lists of the unlinked interpreter. *)
let eval_args (fr : Thread.frame) (a : Link.rarg array) =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (eval fr a.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- eval fr a.(i)
    done;
    out
  end

let eval_arg_list (fr : Thread.frame) (a : Link.rarg array) =
  let rec go i =
    if i >= Array.length a then []
    else
      let v = eval fr a.(i) in
      v :: go (i + 1)
  in
  go 0

let as_int = function
  | Value.Int n -> n
  | Value.Bool true -> 1
  | Value.Bool false -> 0
  | v -> raise (Fault ("expected an integer, got " ^ Value.to_string v))

let as_mutex = function
  | Value.Mutex name -> name
  | v -> raise (Fault ("expected a mutex, got " ^ Value.to_string v))

let eval_binop op a b =
  let module I = Instr in
  match op with
  | I.Add -> Value.Int (as_int a + as_int b)
  | I.Sub -> Value.Int (as_int a - as_int b)
  | I.Mul -> Value.Int (as_int a * as_int b)
  | I.Div ->
      let d = as_int b in
      if d = 0 then raise (Fault "division by zero") else Value.Int (as_int a / d)
  | I.Mod ->
      let d = as_int b in
      if d = 0 then raise (Fault "modulo by zero") else Value.Int (as_int a mod d)
  | I.Eq -> Value.Bool (Value.equal a b)
  | I.Ne -> Value.Bool (not (Value.equal a b))
  | I.Lt -> Value.Bool (as_int a < as_int b)
  | I.Le -> Value.Bool (as_int a <= as_int b)
  | I.Gt -> Value.Bool (as_int a > as_int b)
  | I.Ge -> Value.Bool (as_int a >= as_int b)
  | I.And -> Value.Bool (Value.is_true a && Value.is_true b)
  | I.Or -> Value.Bool (Value.is_true a || Value.is_true b)

let eval_unop op a =
  match op with
  | Instr.Not -> Value.Bool (not (Value.is_true a))
  | Instr.Neg -> Value.Int (-as_int a)
  | Instr.Is_null -> Value.Bool (match a with Value.Null -> true | _ -> false)

let render_output fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let i = ref 0 in
  let n = String.length fmt in
  while !i < n do
    if !i + 1 < n && fmt.[!i] = '%' && fmt.[!i + 1] = 'v' then begin
      (match !args with
      | a :: rest ->
          Buffer.add_string buf (Value.to_string a);
          args := rest
      | [] -> Buffer.add_string buf "%v");
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Failure bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let set_failure m ~kind ~site_id ~iid ~tid ~msg =
  let th = thread m tid in
  (match th.Thread.status with
  | Thread.Done | Thread.Failed -> ()
  | _ ->
      th.Thread.status <- Thread.Failed;
      remove_live m th);
  flight_event m ~kind:Flight_ring.k_fail ~tid
    ~arg:(match site_id with Some s -> s | None -> -1)
    ~detail:msg;
  m.outcome <-
    Some (Outcome.Failed { kind; site_id; iid; tid; step = m.step; msg })

(* A recovering thread just branched: if the not-taken arm is the fail
   block of the site being recovered, the retry finally made it past the
   failure — the episode closes as recovered. [lb_site] was resolved onto
   the block at link time; the unlinked interpreter scanned the metadata
   list here. *)
let note_branch_taken m (th : Thread.t) (fr : Thread.frame) ~taken_idx
    ~other_idx =
  match th.Thread.recovering with
  | Some rec_ when m.meta <> None -> (
      match fr.func.Link.lf_blocks.(other_idx).Link.lb_site with
      | Some site when site = rec_.Thread.rec_site && taken_idx <> other_idx ->
          let ep =
            {
              Stats.ep_site_id = site;
              ep_tid = th.Thread.tid;
              ep_start = rec_.Thread.rec_start;
              ep_end = m.step;
              ep_retries =
                Thread.retries_of th site - rec_.Thread.rec_retries_before;
            }
          in
          m.stats.episodes <- ep :: m.stats.episodes;
          trace m
            (Trace.Ev_recovered
               { step = m.step; tid = th.Thread.tid; site_id = site });
          flight_event m ~kind:Flight_ring.k_recovered ~tid:th.Thread.tid
            ~arg:site ~detail:"";
          th.Thread.recovering <- None
      | _ -> ())
  | _ -> ()

let close_episode m (th : Thread.t) =
  match th.Thread.recovering with
  | None -> ()
  | Some rec_ ->
      let ep =
        {
          Stats.ep_site_id = rec_.Thread.rec_site;
          ep_tid = th.Thread.tid;
          ep_start = rec_.Thread.rec_start;
          ep_end = m.step;
          ep_retries =
            Thread.retries_of th rec_.Thread.rec_site
            - rec_.Thread.rec_retries_before;
        }
      in
      m.stats.episodes <- ep :: m.stats.episodes;
      trace m
        (Trace.Ev_recovered
           { step = m.step; tid = th.Thread.tid; site_id = rec_.Thread.rec_site });
      flight_event m ~kind:Flight_ring.k_recovered ~tid:th.Thread.tid
        ~arg:rec_.Thread.rec_site ~detail:"";
      th.Thread.recovering <- None

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let compensate m (th : Thread.t) =
  let current, rest = Thread.current_region_acquisitions th in
  List.iter
    (fun (r, _) ->
      match r with
      | Thread.R_lock name ->
          if Locks.force_release m.locks name ~tid:th.Thread.tid then begin
            m.stats.compensated_locks <- m.stats.compensated_locks + 1;
            trace m
              (Trace.Ev_compensate_lock
                 { step = m.step; tid = th.Thread.tid; lock = name });
            flight_event m ~kind:Flight_ring.k_release ~tid:th.Thread.tid
              ~arg:(-1) ~detail:name;
            race_release m th name
          end
      | Thread.R_block id ->
          if Heap.release_block m.heap id then begin
            m.stats.compensated_blocks <- m.stats.compensated_blocks + 1;
            trace m
              (Trace.Ev_compensate_block
                 { step = m.step; tid = th.Thread.tid; block = id })
          end)
    current;
  th.Thread.acq_log <- rest

let rollback m (th : Thread.t) (ck : Thread.checkpoint) =
  if m.config.verify_rollbacks && th.Thread.last_destroy_step > ck.Thread.ck_step
  then m.stats.tracecheck_violations <- m.stats.tracecheck_violations + 1;
  while th.Thread.stack_depth > ck.Thread.ck_depth do
    ignore (Thread.pop_frame th)
  done;
  let fr = Thread.top th in
  (if fr.Thread.func == ck.Thread.ck_func then
     Array.blit ck.Thread.ck_regs 0 fr.Thread.regs 0 (Array.length fr.Thread.regs)
   else begin
     (* Cross-function restore (the checkpointing function is not the one
        the surviving frame runs): translate registers by name, exactly
        the replace-the-whole-map semantics of the unlinked interpreter —
        names the checkpoint never bound come back undefined. *)
     let src = ck.Thread.ck_func in
     let dst = fr.Thread.func in
     for j = 0 to Array.length fr.Thread.regs - 1 do
       fr.Thread.regs.(j) <-
         (if j < dst.Link.lf_nregs then
            match
              Hashtbl.find_opt src.Link.lf_reg_index
                (Reg.name dst.Link.lf_reg_names.(j))
            with
            | Some i -> ck.Thread.ck_regs.(i)
            | None -> Thread.undef
          else Thread.undef)
     done
   end);
  (match Link.find_block_index fr.Thread.func ck.Thread.ck_block with
  | Some bi -> fr.Thread.block <- fr.Thread.func.Link.lf_blocks.(bi)
  | None ->
      (* unreachable when guarded by [checkpoint_applicable] *)
      invalid_arg
        (Format.asprintf "Func.block_exn: no block %a in %a" Label.pp
           ck.Thread.ck_block Fname.pp fr.Thread.func.Link.lf_name));
  fr.Thread.idx <- ck.Thread.ck_idx;
  th.Thread.status <- Thread.Runnable;
  m.stats.rollbacks <- m.stats.rollbacks + 1

(* A checkpoint is stale once the frame it was taken in has returned —
   unless the frame now at that depth happens to have a block of the same
   label (the paper's setjmp analogue is exactly this loose). *)
let checkpoint_applicable (th : Thread.t) (ck : Thread.checkpoint) =
  Thread.depth th >= ck.Thread.ck_depth
  &&
  match List.nth_opt th.Thread.stack (Thread.depth th - ck.Thread.ck_depth) with
  | Some fr -> Link.find_block_index fr.Thread.func ck.Thread.ck_block <> None
  | None -> false

let try_recover m (th : Thread.t) ~site_id ~kind =
  (* the maintained depth counter must agree with the actual stack *)
  assert (th.Thread.stack_depth = List.length th.Thread.stack);
  match th.Thread.checkpoint with
  | Some ck
    when Thread.retries_of th site_id < m.config.max_retries
         && checkpoint_applicable th ck ->
      (match th.Thread.recovering with
      | Some r when r.Thread.rec_site = site_id -> ()
      | Some _ -> close_episode m th
      | None -> ());
      if th.Thread.recovering = None then
        th.Thread.recovering <-
          Some
            {
              Thread.rec_site = site_id;
              rec_start = m.step;
              rec_retries_before = Thread.retries_of th site_id;
            };
      Thread.bump_retries th site_id;
      trace m
        (Trace.Ev_rollback
           {
             step = m.step;
             tid = th.Thread.tid;
             site_id;
             retry = Thread.retries_of th site_id;
           });
      (match m.prof with
      | None -> ()
      | Some p ->
          p.Profile.p_rollback ~step:m.step ~tid:th.Thread.tid ~site_id);
      flight_event m ~kind:Flight_ring.k_rollback ~tid:th.Thread.tid
        ~arg:site_id ~detail:"";
      compensate m th;
      rollback m th ck;
      if kind = Instr.Deadlock && m.config.deadlock_backoff > 0 then begin
        let pause =
          1 + Random.State.int (Sched.rng m.sched) m.config.deadlock_backoff
        in
        th.Thread.status <- Thread.Sleeping (m.step + pause)
      end;
      true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

let advance (fr : Thread.frame) = fr.idx <- fr.idx + 1

let in_wait_cycle m ~tid ~lock =
  let rec chase lock_name seen =
    match Locks.owner m.locks lock_name with
    | None -> false
    | Some owner when owner = tid -> true
    | Some owner ->
        if List.mem owner seen then false
        else begin
          match (thread m owner).Thread.status with
          | Thread.Blocked_lock { name; _ } -> chase name (owner :: seen)
          | _ -> false
        end
  in
  chase lock []

let do_return m (th : Thread.t) v =
  match th.Thread.stack with
  | [] -> invalid_arg "return with empty stack"
  | frame :: rest -> (
      th.Thread.stack <- rest;
      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
      match rest with
      | [] ->
          close_episode m th;
          trace m (Trace.Ev_thread_done { step = m.step; tid = th.Thread.tid });
          th.Thread.status <- Thread.Done;
          remove_live m th
      | caller :: _ -> (
          match frame.Thread.ret_reg with
          | None -> ()
          | Some r -> (
              match v with
              | Some value -> caller.Thread.regs.(r) <- value
              | None ->
                  raise (Fault "function returned no value but one was expected"))))

let exec_call m (th : Thread.t) ~ret ~fid ~fname ~args =
  let fr = Thread.top th in
  let argv = eval_args fr args in
  advance fr;
  if fid < 0 then
    raise (Fault (Format.asprintf "call to unknown %a" Fname.pp fname));
  let f = m.linked.Link.lp_funcs.(fid) in
  Thread.push_frame th (Thread.make_frame f ~args:argv ~ret_reg:ret)

let exec_spawn m (th : Thread.t) ~reg ~fid ~fname ~args =
  let fr = Thread.top th in
  let argv = eval_args fr args in
  if fid < 0 then
    raise (Fault (Format.asprintf "spawn of unknown %a" Fname.pp fname));
  let f = m.linked.Link.lp_funcs.(fid) in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th' = Thread.create ~tid f ~args:argv in
  if m.config.perturb_timing && m.config.spawn_jitter > 0 then
    th'.Thread.status <-
      Thread.Sleeping
        (m.step + Random.State.int (Sched.rng m.sched) m.config.spawn_jitter);
  Hashtbl.replace m.threads tid th';
  add_live m th';
  trace m (Trace.Ev_spawn { step = m.step; parent = th.Thread.tid; child = tid });
  (match m.race with
  | None -> ()
  | Some p -> p.Race_probe.rp_spawn ~step:m.step ~parent:th.Thread.tid ~child:tid);
  flight_event m ~kind:Flight_ring.k_spawn ~tid:th.Thread.tid ~arg:tid
    ~detail:"";
  fr.Thread.regs.(reg) <- Value.Tid tid;
  advance fr

let exec_instr m (th : Thread.t) (i : Link.linstr) =
  let fr = Thread.top th in
  let regs = fr.Thread.regs in
  if i.Link.li_destroying then begin
    th.Thread.last_destroy_step <- m.step;
    if th.Thread.recovering <> None then close_episode m th
  end;
  match i.Link.li_op with
  | Link.L_move (r, a) ->
      regs.(r) <- eval fr a;
      advance fr
  | Link.L_binop (r, op, a, b) ->
      regs.(r) <- eval_binop op (eval fr a) (eval fr b);
      advance fr
  | Link.L_unop (r, op, a) ->
      regs.(r) <- eval_unop op (eval fr a);
      advance fr
  | Link.L_load_global (r, g) -> (
      race_global m th i Race_probe.Read g;
      match Hashtbl.find_opt m.globals g with
      | Some v ->
          regs.(r) <- v;
          advance fr
      | None -> raise (Fault ("load of undeclared global " ^ g)))
  | Link.L_load_stack (r, s) ->
      race_slot m th i Race_probe.Read s;
      regs.(r) <-
        (match fr.Thread.stack_vars with
        | None -> Value.zero
        | Some h -> Option.value ~default:Value.zero (Hashtbl.find_opt h s));
      advance fr
  | Link.L_store_global (g, a) ->
      race_global m th i Race_probe.Write g;
      if Hashtbl.mem m.globals g then begin
        Hashtbl.replace m.globals g (eval fr a);
        advance fr
      end
      else raise (Fault ("store to undeclared global " ^ g))
  | Link.L_store_stack (s, a) ->
      race_slot m th i Race_probe.Write s;
      Hashtbl.replace (Thread.stack_tbl fr) s (eval fr a);
      advance fr
  | Link.L_load_idx (r, p, ix) -> (
      (* operands bound right-to-left, preserving the original argument
         evaluation order; the access is reported before the heap op so
         faulting dereferences are still seen by the detector *)
      let iv = as_int (eval fr ix) in
      let pv = eval fr p in
      race_cell m th i Race_probe.Read pv iv;
      match Heap.load m.heap pv iv with
      | Ok v ->
          regs.(r) <- v;
          advance fr
      | Error e -> raise (Fault e))
  | Link.L_store_idx (p, ix, v) -> (
      let vv = eval fr v in
      let iv = as_int (eval fr ix) in
      let pv = eval fr p in
      race_cell m th i Race_probe.Write pv iv;
      match Heap.store m.heap pv iv vv with
      | Ok () -> advance fr
      | Error e -> raise (Fault e))
  | Link.L_alloc (r, n) ->
      let ptr = Heap.alloc m.heap (as_int (eval fr n)) in
      Thread.log_acquisition th (Thread.R_block ptr.Value.block);
      regs.(r) <- Value.Ptr ptr;
      advance fr
  | Link.L_free p -> (
      let pv = eval fr p in
      race_free m th i pv;
      match Heap.free m.heap pv with
      | Ok () -> advance fr
      | Error e -> raise (Fault e))
  | Link.L_lock mref ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.Thread.tid then begin
        Thread.log_acquisition th (Thread.R_lock name);
        race_acquire m th i name;
        flight_event m ~kind:Flight_ring.k_acquire ~tid:th.Thread.tid ~arg:(-1)
          ~detail:name;
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        match th.Thread.status with
        | Thread.Blocked_lock _ -> ()
        | _ ->
            trace m
              (Trace.Ev_block { step = m.step; tid = th.Thread.tid; lock = name });
            race_request m th i name;
            flight_event m ~kind:Flight_ring.k_block ~tid:th.Thread.tid
              ~arg:(-1) ~detail:name;
            th.Thread.status <-
              Thread.Blocked_lock { name; since = m.step; timeout = None }
      end
  | Link.L_timed_lock (r, mref, timeout) ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.Thread.tid then begin
        Thread.log_acquisition th (Thread.R_lock name);
        race_acquire m th i name;
        flight_event m ~kind:Flight_ring.k_acquire ~tid:th.Thread.tid ~arg:(-1)
          ~detail:name;
        regs.(r) <- Value.truth;
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        let since =
          match th.Thread.status with
          | Thread.Blocked_lock { since; _ } -> since
          | _ -> m.step
        in
        let detected_cycle =
          m.config.deadlock_detection = Wait_graph
          && in_wait_cycle m ~tid:th.Thread.tid ~lock:name
        in
        if detected_cycle || m.step - since >= timeout then begin
          regs.(r) <- Value.Bool false;
          th.Thread.status <- Thread.Runnable;
          advance fr
        end
        else begin
          (match th.Thread.status with
          | Thread.Blocked_lock _ -> ()
          | _ ->
              trace m
                (Trace.Ev_block
                   { step = m.step; tid = th.Thread.tid; lock = name });
              race_request m th i name;
              flight_event m ~kind:Flight_ring.k_block ~tid:th.Thread.tid
                ~arg:(-1) ~detail:name);
          th.Thread.status <-
            Thread.Blocked_lock { name; since; timeout = Some timeout }
        end
      end
  | Link.L_unlock mref -> (
      let name = as_mutex (eval fr mref) in
      match Locks.release m.locks name ~tid:th.Thread.tid with
      | Ok () ->
          race_release m th name;
          flight_event m ~kind:Flight_ring.k_release ~tid:th.Thread.tid
            ~arg:(-1) ~detail:name;
          advance fr
      | Error e -> raise (Fault e))
  | Link.L_assert { cond; msg; oracle } ->
      if Value.is_true (eval fr cond) then advance fr
      else
        let kind = if oracle then Instr.Wrong_output else Instr.Assert_fail in
        set_failure m ~kind ~site_id:None ~iid:(Some i.Link.li_iid)
          ~tid:th.Thread.tid ~msg
  | Link.L_output { fmt; args } ->
      let text = render_output fmt (eval_arg_list fr args) in
      m.outputs <- text :: m.outputs;
      m.stats.outputs <- m.stats.outputs + 1;
      trace m (Trace.Ev_output { step = m.step; tid = th.Thread.tid; text });
      advance fr
  | Link.L_call { ret; fid; fname; args } -> exec_call m th ~ret ~fid ~fname ~args
  | Link.L_spawn { reg; fid; fname; args } ->
      exec_spawn m th ~reg ~fid ~fname ~args
  | Link.L_join t -> (
      match eval fr t with
      | Value.Tid tid -> (
          match (thread m tid).Thread.status with
          | Thread.Done | Thread.Failed ->
              (match m.race with
              | None -> ()
              | Some p ->
                  p.Race_probe.rp_join ~step:m.step ~tid:th.Thread.tid
                    ~joined:tid);
              th.Thread.status <- Thread.Runnable;
              advance fr
          | _ -> th.Thread.status <- Thread.Blocked_join tid)
      | v -> raise (Fault ("join of a non-thread value " ^ Value.to_string v)))
  | Link.L_sleep n ->
      let n =
        if m.config.perturb_timing && n > 0 then
          Random.State.int (Sched.rng m.sched) (n + 1)
        else n
      in
      th.Thread.status <- Thread.Sleeping (m.step + n);
      advance fr
  | Link.L_nop -> advance fr
  | Link.L_wait name -> (
      match th.Thread.status with
      | Thread.Blocked_event _ -> ()
      | _ ->
          trace m
            (Trace.Ev_block
               { step = m.step; tid = th.Thread.tid; lock = "event:" ^ name });
          flight_event m ~kind:Flight_ring.k_block ~tid:th.Thread.tid ~arg:1
            ~detail:name;
          th.Thread.status <-
            Thread.Blocked_event { name; since = m.step; timeout = None })
  | Link.L_timed_wait (r, name, timeout) ->
      let since =
        match th.Thread.status with
        | Thread.Blocked_event { since; _ } -> since
        | _ -> m.step
      in
      if m.step - since >= timeout then begin
        regs.(r) <- Value.Bool false;
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        (match th.Thread.status with
        | Thread.Blocked_event _ -> ()
        | _ ->
            trace m
              (Trace.Ev_block
                 { step = m.step; tid = th.Thread.tid; lock = "event:" ^ name });
            flight_event m ~kind:Flight_ring.k_block ~tid:th.Thread.tid ~arg:1
              ~detail:name);
        th.Thread.status <-
          Thread.Blocked_event { name; since; timeout = Some timeout }
      end
  | Link.L_notify name ->
      Hashtbl.iter
        (fun _ (waiter : Thread.t) ->
          match waiter.Thread.status with
          | Thread.Blocked_event { name = n; _ } when n = name ->
              let wfr = Thread.top waiter in
              (match wfr.Thread.block.Link.lb_instrs.(wfr.Thread.idx).Link.li_op
               with
              | Link.L_timed_wait (r, _, _) ->
                  wfr.Thread.regs.(r) <- Value.truth
              | _ -> ());
              wfr.Thread.idx <- wfr.Thread.idx + 1;
              waiter.Thread.status <- Thread.Runnable;
              trace m (Trace.Ev_wake { step = m.step; tid = waiter.Thread.tid });
              (match m.race with
              | None -> ()
              | Some p ->
                  p.Race_probe.rp_wake ~step:m.step ~waker:th.Thread.tid
                    ~woken:waiter.Thread.tid)
          | _ -> ())
        m.threads;
      advance fr
  | Link.L_checkpoint id ->
      th.Thread.region_counter <- th.Thread.region_counter + 1;
      advance fr;
      th.Thread.checkpoint <-
        Some
          {
            Thread.ck_depth = Thread.depth th;
            ck_func = fr.Thread.func;
            ck_block = fr.Thread.block.Link.lb_label;
            ck_idx = fr.Thread.idx;
            ck_regs = Array.copy fr.Thread.regs;
            ck_counter = th.Thread.region_counter;
            ck_step = m.step;
          };
      Stats.hit_checkpoint m.stats id;
      trace m
        (Trace.Ev_checkpoint { step = m.step; tid = th.Thread.tid; ckpt_id = id })
  | Link.L_ptr_guard (r, p, ix) ->
      regs.(r) <- Value.Bool (Heap.valid m.heap (eval fr p) (as_int (eval fr ix)));
      advance fr
  | Link.L_try_recover { site_id; kind } ->
      trace m
        (Trace.Ev_failure_detected
           { step = m.step; tid = th.Thread.tid; site_id; kind });
      if not (try_recover m th ~site_id ~kind) then advance fr
  | Link.L_fail_stop { site_id; kind; msg } ->
      close_episode m th;
      trace m (Trace.Ev_fail_stop { step = m.step; tid = th.Thread.tid; site_id });
      set_failure m ~kind ~site_id:(Some site_id) ~iid:(Some i.Link.li_iid)
        ~tid:th.Thread.tid ~msg

let exec_terminator m (th : Thread.t) =
  let fr = Thread.top th in
  match fr.Thread.block.Link.lb_term with
  | Link.L_jump i ->
      fr.Thread.block <- fr.Thread.func.Link.lf_blocks.(i);
      fr.Thread.idx <- 0
  | Link.L_branch (c, t, f) ->
      let taken, other = if Value.is_true (eval fr c) then (t, f) else (f, t) in
      if th.Thread.recovering <> None then
        note_branch_taken m th fr ~taken_idx:taken ~other_idx:other;
      fr.Thread.block <- fr.Thread.func.Link.lf_blocks.(taken);
      fr.Thread.idx <- 0
  | Link.L_return v ->
      let value = Option.map (eval fr) v in
      do_return m th value
  | Link.L_exit ->
      th.Thread.status <- Thread.Done;
      remove_live m th;
      m.outcome <- Some Outcome.Success

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

let eligible m (th : Thread.t) =
  match th.Thread.status with
  | Thread.Runnable -> true
  | Thread.Sleeping until -> m.step >= until
  | Thread.Blocked_lock { name; since; timeout } ->
      Locks.is_free m.locks name
      || (match timeout with Some t -> m.step - since >= t | None -> false)
      || (m.config.deadlock_detection = Wait_graph
         && timeout <> None
         && in_wait_cycle m ~tid:th.Thread.tid ~lock:name)
  | Thread.Blocked_event { since; timeout; _ } -> (
      (* notifies wake the thread eagerly; only timeouts need polling *)
      match timeout with Some t -> m.step - since >= t | None -> false)
  | Thread.Blocked_join tid -> (
      match (thread m tid).Thread.status with
      | Thread.Done | Thread.Failed -> true
      | _ -> false)
  | Thread.Done | Thread.Failed -> false

let run_thread_step m (th : Thread.t) =
  let tid = th.Thread.tid in
  (* A sleeper simply wakes; blocked threads re-execute their blocking
     instruction, which inspects and updates the status itself (notably the
     [since] timestamp of a timed lock must survive rescheduling). *)
  (match th.Thread.status with
  | Thread.Sleeping _ ->
      trace m (Trace.Ev_wake { step = m.step; tid });
      th.Thread.status <- Thread.Runnable
  | _ -> ());
  m.stats.instrs <- m.stats.instrs + 1;
  if m.trace <> None then trace m (Trace.Ev_schedule { step = m.step; tid });
  let fr = Thread.top th in
  let instrs = fr.Thread.block.Link.lb_instrs in
  let at_instr = fr.Thread.idx < Array.length instrs in
  if m.config.profile_sites && at_instr then
    Stats.hit_iid m.stats instrs.(fr.Thread.idx).Link.li_iid;
  (match m.prof with
  | None -> ()
  | Some p ->
      let stack =
        List.map
          (fun (f : Thread.frame) -> f.Thread.func.Link.lf_qname)
          th.Thread.stack
      in
      let at_ckpt =
        at_instr
        &&
        match instrs.(fr.Thread.idx).Link.li_op with
        | Link.L_checkpoint _ -> true
        | _ -> false
      in
      let cls = if at_ckpt then Profile.Checkpoint else Profile.Normal in
      p.Profile.p_step ~step:m.step ~tid ~stack
        ~block:fr.Thread.block.Link.lb_label_name ~cls);
  (* Remember where the thread stands before executing: on a fault, the
     crash report carries the faulting instruction — exactly what a user
     hands to fix mode (§3.1.2). *)
  let at_iid = if at_instr then instrs.(fr.Thread.idx).Link.li_iid else -1 in
  try
    if at_instr then exec_instr m th instrs.(fr.Thread.idx)
    else exec_terminator m th
  with Fault msg ->
    (* An unrecovered runtime fault: segmentation fault or an equivalent
       hardware-level failure of this thread, which takes the program
       down. *)
    close_episode m th;
    set_failure m ~kind:Instr.Seg_fault ~site_id:None
      ~iid:(if at_iid < 0 then None else Some at_iid)
      ~tid ~msg

(** Run one scheduler step. Returns [false] when the program has finished
    (successfully or not). *)
let step m =
  match m.outcome with
  | Some _ -> false
  | None ->
      if m.live_n = 0 then begin
        m.outcome <- Some Outcome.Success;
        false
      end
      else begin
        let n = m.live_n in
        let rn = ref 0 in
        for i = 0 to n - 1 do
          if eligible m m.live.(i) then begin
            m.ready.(!rn) <- i;
            incr rn
          end
        done;
        (if !rn = 0 then begin
           (* Threads that will become eligible as virtual time passes:
              sleepers, and lock waiters with a pending timeout. *)
           let waiting_on_time = ref false in
           for i = 0 to n - 1 do
             match m.live.(i).Thread.status with
             | Thread.Sleeping _
             | Thread.Blocked_lock { timeout = Some _; _ }
             | Thread.Blocked_event { timeout = Some _; _ } ->
                 waiting_on_time := true
             | _ -> ()
           done;
           if !waiting_on_time then begin
             (* Everyone is asleep or waiting: let virtual time pass. *)
             (match m.prof with
             | None -> ()
             | Some p -> p.Profile.p_idle ~step:m.step);
             m.step <- m.step + 1;
             m.stats.idle <- m.stats.idle + 1;
             m.stats.steps <- m.stats.steps + 1
           end
           else
             m.outcome <-
               Some (Outcome.Hang { step = m.step; blocked = live_threads m })
         end
         else begin
           let k =
             Sched.choose_idx m.sched
               ~tid_of:(fun j -> m.live.(m.ready.(j)).Thread.tid)
               !rn
           in
           (match m.flight with
           | None -> ()
           | Some fl ->
               let tid = m.live.(m.ready.(k)).Thread.tid in
               let p = Flight_ring.prev fl in
               let preemptive =
                 tid <> p && p >= 0
                 &&
                 (* the recorder's rule: the switch is preemptive only if
                    the previously running thread was still eligible *)
                 let found = ref false in
                 for j = 0 to !rn - 1 do
                   if m.live.(m.ready.(j)).Thread.tid = p then found := true
                 done;
                 !found
               in
               Flight_ring.push fl tid ~preemptive);
           run_thread_step m m.live.(m.ready.(k));
           m.step <- m.step + 1;
           m.stats.steps <- m.stats.steps + 1
         end);
        m.outcome = None
      end

(** Run to completion (or until the fuel runs out). *)
let run m =
  let rec go () =
    if m.step >= m.config.fuel then begin
      m.outcome <- Some (Outcome.Fuel_exhausted m.step);
      Outcome.Fuel_exhausted m.step
    end
    else if step m then go ()
    else Option.value ~default:Outcome.Success m.outcome
  in
  go ()

(** Convenience: build a machine and run it. *)
let run_program ?config ?meta prog =
  let m = create ?config ?meta prog in
  let outcome = run m in
  (m, outcome)

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* These exist for the *baseline* recovery schemes of Fig 4's right end
   (traditional whole-program checkpoint/rollback): they copy every thread,
   the heap, the globals and the locks. ConAir itself never needs them —
   that is its whole point. *)

type snapshot = {
  s_globals : (string, Value.t) Hashtbl.t;
  s_heap : Heap.t;
  s_locks : Locks.t;
  s_threads : (int * Thread.t) list;
  s_next_tid : int;
  s_step : int;
  s_outputs : string list;
}

let copy_frame (fr : Thread.frame) =
  {
    fr with
    Thread.stack_vars = Option.map Hashtbl.copy fr.Thread.stack_vars;
    regs = Array.copy fr.Thread.regs;
  }

let copy_thread (th : Thread.t) =
  {
    th with
    Thread.stack = List.map copy_frame th.Thread.stack;
    retries = Hashtbl.copy th.Thread.retries;
  }

let snapshot m : snapshot =
  {
    s_globals = Hashtbl.copy m.globals;
    s_heap = Heap.snapshot m.heap;
    s_locks = Locks.snapshot m.locks;
    s_threads =
      Hashtbl.fold (fun tid th acc -> (tid, copy_thread th) :: acc) m.threads [];
    s_next_tid = m.next_tid;
    s_step = m.step;
    s_outputs = m.outputs;
  }

(** Restore [m] to [s]. The statistics keep accumulating across restores
    (lost work is real work); the scheduler can be re-seeded by the caller
    so the retried execution explores a different interleaving. *)
let restore m (s : snapshot) =
  Hashtbl.reset m.globals;
  Hashtbl.iter (Hashtbl.replace m.globals) s.s_globals;
  Hashtbl.reset (Heap.blocks_table m.heap);
  let heap_copy = Heap.snapshot s.s_heap in
  Hashtbl.iter
    (Hashtbl.replace (Heap.blocks_table m.heap))
    (Heap.blocks_table heap_copy);
  Heap.set_next m.heap (Heap.next_id heap_copy);
  Hashtbl.reset m.locks;
  let locks_copy = Locks.snapshot s.s_locks in
  Hashtbl.iter (Hashtbl.replace m.locks) locks_copy;
  Hashtbl.reset m.threads;
  List.iter (fun (tid, th) -> Hashtbl.replace m.threads tid (copy_thread th))
    s.s_threads;
  m.next_tid <- s.s_next_tid;
  (* Virtual time is wall-clock: a rollback restores *state*, not time, so
     sleep deadlines captured in the snapshot keep their absolute meaning
     and blocked threads eventually make progress across restores. *)
  m.step <- max m.step s.s_step;
  m.outputs <- s.s_outputs;
  m.outcome <- None;
  rebuild_live m

(** Swap the scheduling policy and (optionally) enable timing perturbation
    — used by baselines to explore a different interleaving after a
    rollback or restart. *)
let reseed ?(perturb = false) m policy =
  let fresh = Sched.create policy in
  fresh.Sched.cursor <- m.sched.Sched.cursor;
  {
    m with
    sched = fresh;
    config = { m.config with perturb_timing = m.config.perturb_timing || perturb };
  }
