(* The pre-resolution ("link") pass: compile a [Program.t] once, before
   execution, into an execution-ready form the interpreter can run without
   any name lookups on the hot path.

   What is resolved when:

   - register names are interned to dense integer indices per function
     ([Func.reg_universe] order), so a frame's registers live in a flat
     [Value.t array] instead of a persistent map — a checkpoint becomes an
     [Array.copy] blit;
   - every jump and branch label becomes a direct index into the
     function's block array;
   - every call and spawn target becomes an index into the program's
     function array (or [-1] for an unknown callee, which must still fault
     at *execution* time, exactly like the unlinked interpreter — a dead
     call to a missing function is not a link error);
   - the hardening metadata's fail-arm labels are pushed down onto the
     blocks they name ([lb_site]), so the recovery-episode bookkeeping on
     a branch is a field read instead of a list scan.

   Invariant: a linked program is semantically identical to the source
   program under the reference interpreter — same outcomes, outputs, step
   counts, traces and statistics. [test_fast_exec.ml] enforces this over
   the whole bugbench catalog. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

(** A pre-resolved operand: a register index into the frame's array, or
    an immediate. *)
type rarg = L_reg of int | L_const of Value.t

(** Pre-resolved operations, mirroring [Instr.op] one-to-one. Register
    fields are indices into the enclosing function's register array;
    [fid] fields are indices into [lp_funcs] ([-1] = unknown callee). The
    source [Fname.t] is kept for faithful error messages. *)
type lop =
  | L_move of int * rarg
  | L_binop of int * Instr.binop * rarg * rarg
  | L_unop of int * Instr.unop * rarg
  | L_load_global of int * string
  | L_load_stack of int * string
  | L_store_global of string * rarg
  | L_store_stack of string * rarg
  | L_load_idx of int * rarg * rarg
  | L_store_idx of rarg * rarg * rarg
  | L_alloc of int * rarg
  | L_free of rarg
  | L_lock of rarg
  | L_unlock of rarg
  | L_assert of { cond : rarg; msg : string; oracle : bool }
  | L_output of { fmt : string; args : rarg array }
  | L_call of { ret : int option; fid : int; fname : Fname.t; args : rarg array }
  | L_spawn of { reg : int; fid : int; fname : Fname.t; args : rarg array }
  | L_join of rarg
  | L_sleep of int
  | L_nop
  | L_wait of string
  | L_notify of string
  | L_checkpoint of int
  | L_ptr_guard of int * rarg * rarg
  | L_timed_lock of int * rarg * int
  | L_timed_wait of int * string * int
  | L_try_recover of { site_id : int; kind : Instr.failure_kind }
  | L_fail_stop of { site_id : int; kind : Instr.failure_kind; msg : string }

type linstr = {
  li_iid : int;  (** the source instruction id (profiling, crash reports) *)
  li_op : lop;
  li_destroying : bool;  (** [Instr.dynamically_destroying], precomputed *)
}

type lterm =
  | L_jump of int
  | L_branch of rarg * int * int
  | L_return of rarg option
  | L_exit

type lblock = {
  lb_index : int;
  lb_label : Label.t;
  lb_label_name : string;
      (** [Label.name lb_label], precomputed — the profiler hook reads it
          every step and must not format on the hot path *)
  lb_instrs : linstr array;
  lb_term : lterm;
  lb_site : int option;
      (** the hardening site whose fail arm this block is, if any —
          resolved from the harden metadata at link time *)
}

type lfunc = {
  lf_id : int;
  lf_src : Func.t;
  lf_name : Fname.t;
  lf_qname : string;  (** [Fname.name lf_name], precomputed (profiler) *)
  lf_nparams : int;
  lf_param_index : int array;  (** param position -> register index *)
  lf_nregs : int;
  lf_reg_names : Reg.t array;  (** register index -> source name *)
  lf_reg_index : (string, int) Hashtbl.t;  (** register name -> index *)
  lf_blocks : lblock array;
  lf_entry : int;
  lf_block_index : (string, int) Hashtbl.t;  (** label name -> block index *)
}

type program = {
  lp_src : Program.t;
  lp_funcs : lfunc array;
  lp_main : int;
  mutable lp_source : (string * string) option;
      (* [source], once computed. A racing first use computes it twice
         and stores equal values — never a torn one. *)
}

(* ------------------------------------------------------------------ *)

let reg_index_exn tbl r =
  match Hashtbl.find_opt tbl (Reg.name r) with
  | Some i -> i
  | None ->
      (* unreachable: the universe covers every register the function
         mentions *)
      invalid_arg (Format.asprintf "Link: unknown register %a" Reg.pp r)

let link_operand regs = function
  | Instr.Reg r -> L_reg (reg_index_exn regs r)
  | Instr.Const v -> L_const v

let link_args regs args = Array.of_list (List.map (link_operand regs) args)

let link_op regs funcs (op : Instr.op) : lop =
  let reg r = reg_index_exn regs r in
  let arg a = link_operand regs a in
  let fid f = Option.value ~default:(-1) (Hashtbl.find_opt funcs (Fname.name f)) in
  match op with
  | Instr.Move (r, a) -> L_move (reg r, arg a)
  | Instr.Binop (r, op, a, b) -> L_binop (reg r, op, arg a, arg b)
  | Instr.Unop (r, op, a) -> L_unop (reg r, op, arg a)
  | Instr.Load (r, Instr.Global g) -> L_load_global (reg r, g)
  | Instr.Load (r, Instr.Stack s) -> L_load_stack (reg r, s)
  | Instr.Store (Instr.Global g, a) -> L_store_global (g, arg a)
  | Instr.Store (Instr.Stack s, a) -> L_store_stack (s, arg a)
  | Instr.Load_idx (r, p, ix) -> L_load_idx (reg r, arg p, arg ix)
  | Instr.Store_idx (p, ix, v) -> L_store_idx (arg p, arg ix, arg v)
  | Instr.Alloc (r, n) -> L_alloc (reg r, arg n)
  | Instr.Free p -> L_free (arg p)
  | Instr.Lock m -> L_lock (arg m)
  | Instr.Unlock m -> L_unlock (arg m)
  | Instr.Assert { cond; msg; oracle } -> L_assert { cond = arg cond; msg; oracle }
  | Instr.Output { fmt; args } -> L_output { fmt; args = link_args regs args }
  | Instr.Call (ret, callee, args) ->
      L_call
        {
          ret = Option.map reg ret;
          fid = fid callee;
          fname = callee;
          args = link_args regs args;
        }
  | Instr.Spawn (r, callee, args) ->
      L_spawn
        { reg = reg r; fid = fid callee; fname = callee; args = link_args regs args }
  | Instr.Join t -> L_join (arg t)
  | Instr.Sleep n -> L_sleep n
  | Instr.Nop -> L_nop
  | Instr.Wait e -> L_wait e
  | Instr.Notify e -> L_notify e
  | Instr.Checkpoint id -> L_checkpoint id
  | Instr.Ptr_guard (r, p, ix) -> L_ptr_guard (reg r, arg p, arg ix)
  | Instr.Timed_lock (r, m, t) -> L_timed_lock (reg r, arg m, t)
  | Instr.Timed_wait (r, e, t) -> L_timed_wait (reg r, e, t)
  | Instr.Try_recover { site_id; kind } -> L_try_recover { site_id; kind }
  | Instr.Fail_stop { site_id; kind; msg } -> L_fail_stop { site_id; kind; msg }

let block_index_exn f blocks label =
  match Hashtbl.find_opt blocks (Label.name label) with
  | Some i -> i
  | None ->
      invalid_arg
        (Format.asprintf "Link: no block %a in %a" Label.pp label Fname.pp
           f.Func.name)

let link_term f blocks regs : Instr.terminator -> lterm = function
  | Instr.Jump l -> L_jump (block_index_exn f blocks l)
  | Instr.Branch (c, t, fl) ->
      L_branch
        (link_operand regs c, block_index_exn f blocks t, block_index_exn f blocks fl)
  | Instr.Return v -> L_return (Option.map (link_operand regs) v)
  | Instr.Exit -> L_exit

let link_func ~fail_index funcs id (f : Func.t) : lfunc =
  let universe = Func.reg_universe f in
  let nregs = List.length universe in
  let reg_names = Array.of_list universe in
  let regs = Hashtbl.create (max 8 nregs) in
  Array.iteri (fun i r -> Hashtbl.replace regs (Reg.name r) i) reg_names;
  let blocks_arr = Array.of_list f.blocks in
  let block_index = Hashtbl.create (max 8 (Array.length blocks_arr)) in
  Array.iteri
    (fun i (b : Block.t) ->
      if not (Hashtbl.mem block_index (Label.name b.label)) then
        Hashtbl.replace block_index (Label.name b.label) i)
    blocks_arr;
  let lblocks =
    Array.mapi
      (fun i (b : Block.t) ->
        {
          lb_index = i;
          lb_label = b.label;
          lb_label_name = Label.name b.label;
          lb_instrs =
            Array.map
              (fun (ins : Instr.t) ->
                {
                  li_iid = ins.iid;
                  li_op = link_op regs funcs ins.op;
                  li_destroying = Instr.dynamically_destroying ins.op;
                })
              b.instrs;
          lb_term = link_term f block_index regs b.term;
          lb_site = Hashtbl.find_opt fail_index (Label.name b.label);
        })
      blocks_arr
  in
  {
    lf_id = id;
    lf_src = f;
    lf_name = f.name;
    lf_qname = Fname.name f.name;
    lf_nparams = List.length f.params;
    lf_param_index =
      Array.of_list (List.map (reg_index_exn regs) f.params);
    lf_nregs = nregs;
    lf_reg_names = reg_names;
    lf_reg_index = regs;
    lf_blocks = lblocks;
    lf_entry = block_index_exn f block_index f.entry;
    lf_block_index = block_index;
  }

(* Linking is deterministic and its output is never mutated, so machines
   created repeatedly over the same program — bench sweeps, schedule
   replay, fuzz loops — share one linked image instead of re-interning
   every name.  Keyed by physical identity of the inputs (the only cheap
   equality on whole programs); a bounded MRU list scanned with [==].
   Held in an [Atomic.t] so concurrent in-process runs (the serve
   daemon's worker pool) can link safely: a racing publish may drop the
   other thread's entry, which only costs a re-link, never a wrong
   result — the cached images are immutable and keyed by identity. *)
let memo :
    (Program.t
    * (Label.t * int) list
    * (string, int) Hashtbl.t option
    * program)
    list
    Atomic.t =
  Atomic.make []

let memo_max = 256

let truncate n l =
  if List.length l <= n then l else List.filteri (fun i _ -> i < n) l

let link_uncached ?(fail_blocks = []) ?fail_index (p : Program.t) : program =
  let funcs = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem funcs (Fname.name f.name)) then
        Hashtbl.replace funcs (Fname.name f.name) i)
    p.funcs;
  (* Label -> site id. Prefer a table the hardening pass already resolved;
     otherwise build it from the list, first occurrence winning like the
     list scan the unlinked interpreter did. *)
  let fail_index =
    match fail_index with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create (max 8 (List.length fail_blocks)) in
        List.iter
          (fun (l, site) ->
            if not (Hashtbl.mem tbl (Label.name l)) then
              Hashtbl.replace tbl (Label.name l) site)
          fail_blocks;
        tbl
  in
  let lp_funcs =
    Array.of_list
      (List.mapi (fun i f -> link_func ~fail_index funcs i f) p.funcs)
  in
  let lp_main =
    match Hashtbl.find_opt funcs (Fname.name p.main) with
    | Some i -> i
    | None ->
        invalid_arg
          (Format.asprintf "Program.func_exn: no function %a" Fname.pp p.main)
  in
  { lp_src = p; lp_funcs; lp_main; lp_source = None }

(** Pre-resolve [p]. [fail_blocks] is the hardening metadata (fail-arm
    label -> site id); pass [[]] for unhardened programs. Re-linking the
    same inputs returns the first link's image (see [memo] above). *)
let link ?(fail_blocks = []) ?fail_index (p : Program.t) : program =
  let same (p', fb', fi', _) =
    p' == p
    && fb' == fail_blocks
    &&
    match (fi', fail_index) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false
  in
  match List.find_opt same (Atomic.get memo) with
  | Some (_, _, _, lp) -> lp
  | None ->
      let lp = link_uncached ~fail_blocks ?fail_index p in
      Atomic.set memo
        (truncate memo_max ((p, fail_blocks, fail_index, lp) :: Atomic.get memo));
      lp

let func_by_id lp id = lp.lp_funcs.(id)

(* The source program's canonical text and its MD5 (hex), computed once
   per linked image: every recorded run stamps both into its schedule
   log, and the [memo] above already shares the image across runs. *)
let source lp =
  match lp.lp_source with
  | Some s -> s
  | None ->
      let text = Emit.program lp.lp_src in
      let s = (text, Digest.to_hex (Digest.string text)) in
      lp.lp_source <- Some s;
      s

(** Look a block index up by label in [f] — the rare path (rollbacks);
    the hot paths use the indices resolved at link time. *)
let find_block_index (f : lfunc) (l : Label.t) =
  Hashtbl.find_opt f.lf_block_index (Label.name l)
