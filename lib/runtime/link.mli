(** The pre-resolution ("link") pass: compiles a [Program.t] once into an
    execution-ready form — register names interned to dense per-function
    indices, jump/branch labels and call/spawn targets resolved to array
    indices, and the hardening metadata's fail-arm labels pushed down onto
    the blocks they name. The interpreter then runs without any name
    lookups on the hot path.

    Invariant: a linked program is semantically identical to the source
    program under the reference interpreter ([Ref_machine]) — same
    outcomes, outputs, step counts, traces and statistics.
    [test_fast_exec.ml] enforces this across the bugbench catalog. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

(** A pre-resolved operand: a register index into the frame's register
    array, or an immediate. *)
type rarg = L_reg of int | L_const of Value.t

(** Pre-resolved operations, mirroring [Instr.op] one-to-one. Register
    fields are indices into the enclosing function's register array;
    [fid] fields index [lp_funcs] ([-1] = unknown callee, which faults at
    execution time exactly like the unlinked interpreter). *)
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
  li_iid : int;  (** source instruction id (profiling, crash reports) *)
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
  lb_label_name : string;  (** [Label.name lb_label], precomputed *)
  lb_instrs : linstr array;
  lb_term : lterm;
  lb_site : int option;
      (** the hardening site whose fail arm this block is, if any *)
}

type lfunc = {
  lf_id : int;
  lf_src : Func.t;
  lf_name : Fname.t;
  lf_qname : string;  (** [Fname.name lf_name], precomputed *)
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
  mutable lp_source : (string * string) option;  (** cache of {!source} *)
}

val link :
  ?fail_blocks:(Label.t * int) list ->
  ?fail_index:(string, int) Hashtbl.t ->
  Program.t ->
  program
(** Pre-resolve a program. [fail_blocks] is the hardening metadata
    (fail-arm label -> site id); omit for unhardened programs.
    [fail_index] is the same mapping already resolved by the hardening
    pass ([Harden.fail_block_index]) and takes precedence.
    @raise Invalid_argument if the program's main function is missing. *)

val func_by_id : program -> int -> lfunc

val source : program -> string * string
(** [(Emit.program lp_src, its MD5 in hex)], computed on first use and
    kept on the image — which {!link}'s memo shares between every
    machine over the same program. *)

val find_block_index : lfunc -> Label.t -> int option
(** Label lookup — the rare path (rollback targets); hot paths use the
    indices resolved at link time. *)
