(* Unit tests for the runtime substrate: the heap and lock models, the
   interpreter's instruction semantics, scheduling, blocking, failure
   detection, and the recovery engine's moving parts. *)

open Conair.Ir
open Conair.Runtime
open Test_util
module B = Builder

(* Run a single-threaded body and return the final run. *)
let run_body ?policy body =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "g0" (Value.Int 0);
    B.global b "g1" (Value.Int 11);
    B.func b "main" ~params:[] body
  in
  check_valid p;
  run ?policy p

let expect_outputs expected (r : Conair.run) =
  expect_success r;
  Alcotest.(check (list string)) "outputs" expected r.outputs

(* --- Heap model ------------------------------------------------------ *)

let heap_alloc_load_store () =
  let h = Heap.create () in
  let p = Heap.alloc h 3 in
  Alcotest.(check bool) "fresh cells are zero" true
    (Heap.load h (Value.Ptr p) 2 = Ok (Value.Int 0));
  Alcotest.(check bool) "store then load" true
    (Heap.store h (Value.Ptr p) 1 (Value.Int 9) = Ok ()
    && Heap.load h (Value.Ptr p) 1 = Ok (Value.Int 9));
  Alcotest.(check bool) "oob load fails" true
    (Result.is_error (Heap.load h (Value.Ptr p) 3));
  Alcotest.(check bool) "negative offset fails" true
    (Result.is_error (Heap.load h (Value.Ptr p) (-1)));
  Alcotest.(check bool) "valid check agrees" true (Heap.valid h (Value.Ptr p) 2);
  Alcotest.(check bool) "valid rejects oob" false
    (Heap.valid h (Value.Ptr p) 3);
  Alcotest.(check bool) "null invalid" false (Heap.valid h Value.Null 0);
  Alcotest.(check bool) "int invalid" false (Heap.valid h (Value.Int 5) 0)

let heap_free_semantics () =
  let h = Heap.create () in
  let p = Heap.alloc h 2 in
  Alcotest.(check bool) "free ok" true (Heap.free h (Value.Ptr p) = Ok ());
  Alcotest.(check bool) "use after free fails" true
    (Result.is_error (Heap.load h (Value.Ptr p) 0));
  Alcotest.(check bool) "double free fails" true
    (Result.is_error (Heap.free h (Value.Ptr p)));
  let q = Heap.alloc h 2 in
  Alcotest.(check bool) "interior free fails" true
    (Result.is_error
       (Heap.free h (Value.Ptr { q with Value.offset = 1 })));
  Alcotest.(check bool) "free of null fails" true
    (Result.is_error (Heap.free h Value.Null));
  Alcotest.(check int) "one live block" 1 (Heap.live_blocks h);
  Alcotest.(check bool) "release_block works once" true
    (Heap.release_block h q.Value.block);
  Alcotest.(check bool) "release_block idempotent-ish" false
    (Heap.release_block h q.Value.block)

let heap_snapshot_isolated () =
  let h = Heap.create () in
  let p = Heap.alloc h 1 in
  ignore (Heap.store h (Value.Ptr p) 0 (Value.Int 1));
  let s = Heap.snapshot h in
  ignore (Heap.store h (Value.Ptr p) 0 (Value.Int 2));
  Alcotest.(check bool) "snapshot unaffected" true
    (Heap.load s (Value.Ptr p) 0 = Ok (Value.Int 1))

(* --- Locks ------------------------------------------------------------ *)

let locks_basics () =
  let t = Locks.create [ "a" ] in
  Alcotest.(check bool) "free initially" true (Locks.is_free t "a");
  Alcotest.(check bool) "acquire" true (Locks.try_acquire t "a" ~tid:1);
  Alcotest.(check bool) "held now" false (Locks.is_free t "a");
  Alcotest.(check bool) "re-acquire by self fails (non-reentrant)" false
    (Locks.try_acquire t "a" ~tid:1);
  Alcotest.(check bool) "acquire by other fails" false
    (Locks.try_acquire t "a" ~tid:2);
  Alcotest.(check bool) "release by non-owner fails" true
    (Result.is_error (Locks.release t "a" ~tid:2));
  Alcotest.(check bool) "release by owner" true
    (Locks.release t "a" ~tid:1 = Ok ());
  Alcotest.(check bool) "release when free fails" true
    (Result.is_error (Locks.release t "a" ~tid:1));
  (* dynamic creation on first use *)
  Alcotest.(check bool) "unknown lock springs into existence" true
    (Locks.try_acquire t "fresh" ~tid:3);
  (* forced release for compensation *)
  Alcotest.(check bool) "force release by owner" true
    (Locks.force_release t "fresh" ~tid:3);
  Alcotest.(check bool) "force release when free is a no-op" false
    (Locks.force_release t "fresh" ~tid:3)

(* --- Arithmetic and control flow -------------------------------------- *)

let arithmetic_semantics () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.add f "a" (B.int 20) (B.int 22);
    B.sub f "b" (B.reg "a") (B.int 2);
    B.mul f "c" (B.reg "b") (B.int 3);
    B.binop f "d" Instr.Div (B.reg "c") (B.int 5);
    B.binop f "e" Instr.Mod (B.reg "c") (B.int 5);
    B.output f "%v %v %v %v %v"
      [ B.reg "a"; B.reg "b"; B.reg "c"; B.reg "d"; B.reg "e" ];
    B.exit_ f
  in
  expect_outputs [ "42 40 120 24 0" ] r

let comparison_semantics () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.lt f "a" (B.int 1) (B.int 2);
    B.binop f "b" Instr.Le (B.int 2) (B.int 2);
    B.gt f "c" (B.int 1) (B.int 2);
    B.binop f "d" Instr.Ge (B.int 1) (B.int 2);
    B.eq f "e" (B.int 3) (B.int 3);
    B.ne f "f" (B.int 3) (B.int 3);
    B.binop f "g" Instr.And (B.reg "a") (B.reg "c");
    B.binop f "h" Instr.Or (B.reg "a") (B.reg "c");
    B.output f "%v %v %v %v %v %v %v %v"
      [ B.reg "a"; B.reg "b"; B.reg "c"; B.reg "d"; B.reg "e"; B.reg "f";
        B.reg "g"; B.reg "h" ];
    B.exit_ f
  in
  expect_outputs [ "true true false false true false false true" ] r

let unop_semantics () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.unop f "a" Instr.Not (B.bool false);
    B.unop f "b" Instr.Neg (B.int 5);
    B.unop f "c" Instr.Is_null B.null;
    B.unop f "d" Instr.Is_null (B.int 0);
    B.output f "%v %v %v %v" [ B.reg "a"; B.reg "b"; B.reg "c"; B.reg "d" ];
    B.exit_ f
  in
  expect_outputs [ "true -5 true false" ] r

let division_by_zero_faults () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.binop f "a" Instr.Div (B.int 1) (B.int 0);
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault r

let undefined_register_faults () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.add f "a" (B.reg "never_defined") (B.int 1);
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault r

(* --- Memory ------------------------------------------------------------ *)

let globals_and_stack () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.load f "a" (Instr.Global "g1");
    B.store f (Instr.Global "g0") (B.reg "a");
    B.load f "b" (Instr.Global "g0");
    (* stack slots read as zero before first write *)
    B.load f "z" (Instr.Stack "local");
    B.store f (Instr.Stack "local") (B.int 5);
    B.load f "l" (Instr.Stack "local");
    B.output f "%v %v %v" [ B.reg "b"; B.reg "z"; B.reg "l" ];
    B.exit_ f
  in
  expect_outputs [ "11 0 5" ] r

let undeclared_global_faults () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.load f "a" (Instr.Global "not_declared");
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault r

let heap_instructions () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.alloc f "p" (B.int 2);
    B.store_idx f (B.reg "p") (B.int 0) (B.int 7);
    B.store_idx f (B.reg "p") (B.int 1) (B.int 8);
    B.load_idx f "a" (B.reg "p") (B.int 0);
    B.load_idx f "b" (B.reg "p") (B.int 1);
    B.add f "s" (B.reg "a") (B.reg "b");
    B.free f (B.reg "p");
    B.output f "%v" [ B.reg "s" ];
    B.exit_ f
  in
  expect_outputs [ "15" ] r

let null_deref_is_segfault () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.load_idx f "a" B.null (B.int 0);
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault r

let use_after_free_is_segfault () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.alloc f "p" (B.int 1);
    B.free f (B.reg "p");
    B.load_idx f "a" (B.reg "p") (B.int 0);
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault r

(* --- Calls, returns, outputs ------------------------------------------- *)

let call_and_return () =
  let p =
    B.build ~main:"main" @@ fun b ->
    (B.func b "sq" ~params:[ "x" ] @@ fun f ->
     B.label f "entry";
     B.mul f "y" (B.reg "x") (B.reg "x");
     B.ret f (Some (B.reg "y")));
    (B.func b "twice" ~params:[ "x" ] @@ fun f ->
     B.label f "entry";
     B.call f ~into:"a" "sq" [ B.reg "x" ];
     B.call f ~into:"b" "sq" [ B.reg "a" ];
     B.ret f (Some (B.reg "b")));
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.call f ~into:"r" "twice" [ B.int 3 ];
    B.output f "%v" [ B.reg "r" ];
    B.exit_ f
  in
  expect_outputs [ "81" ] (run p)

let missing_return_value_faults () =
  let p =
    B.build ~main:"main" @@ fun b ->
    (B.func b "noret" ~params:[] @@ fun f ->
     B.label f "entry";
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.call f ~into:"r" "noret" [];
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault (run p)

let recursion_works () =
  let p =
    B.build ~main:"main" @@ fun b ->
    (B.func b "fact" ~params:[ "n" ] @@ fun f ->
     B.label f "entry";
     B.gt f "c" (B.reg "n") (B.int 1);
     B.branch f (B.reg "c") "rec" "base";
     B.label f "rec";
     B.sub f "m" (B.reg "n") (B.int 1);
     B.call f ~into:"r" "fact" [ B.reg "m" ];
     B.mul f "r" (B.reg "r") (B.reg "n");
     B.ret f (Some (B.reg "r"));
     B.label f "base";
     B.ret f (Some (B.int 1)));
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.call f ~into:"r" "fact" [ B.int 6 ];
    B.output f "%v" [ B.reg "r" ];
    B.exit_ f
  in
  expect_outputs [ "720" ] (run p)

let output_formatting () =
  let r =
    run_body @@ fun f ->
    B.label f "entry";
    B.output f "a=%v, b=%v, trailing %v" [ B.int 1; B.bool true ];
    B.exit_ f
  in
  (* missing argument leaves the placeholder *)
  expect_outputs [ "a=1, b=true, trailing %v" ] r

(* --- Threads and scheduling -------------------------------------------- *)

let spawn_join_order () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "x" (Value.Int 0);
    (B.func b "child" ~params:[] @@ fun f ->
     B.label f "entry";
     B.store f (Instr.Global "x") (B.int 42);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t" "child" [];
    B.join f (B.reg "t");
    B.load f "v" (Instr.Global "x");
    B.output f "%v" [ B.reg "v" ];
    B.exit_ f
  in
  (* join guarantees the child's store is visible *)
  expect_outputs [ "42" ] (run p);
  expect_outputs [ "42" ] (run ~policy:(Sched.Random 7) p)

let exit_terminates_everything () =
  let p =
    B.build ~main:"main" @@ fun b ->
    (B.func b "spinner" ~params:[] @@ fun f ->
     B.label f "loop";
     B.nop f;
     B.jump f "loop");
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t" "spinner" [];
    B.exit_ f
  in
  (* exit() ends the program even with a live spinner *)
  expect_success (run p)

let infinite_loop_exhausts_fuel () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "loop";
    B.nop f;
    B.jump f "loop"
  in
  let r = run ~fuel:1000 p in
  match r.outcome with
  | Outcome.Fuel_exhausted n -> Alcotest.(check int) "at the budget" 1000 n
  | o -> Alcotest.failf "expected fuel exhaustion, got %a" Outcome.pp o

let self_deadlock_hangs () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "m";
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.lock f (B.mutex_ref "m");
    B.lock f (B.mutex_ref "m");
    B.exit_ f
  in
  expect_hang (run p)

let unlock_not_held_faults () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "m";
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.unlock f (B.mutex_ref "m");
    B.exit_ f
  in
  expect_failure_kind Instr.Seg_fault (run p)

let lock_contention_resolves () =
  (* Two threads increment a shared counter under a lock: the result is
     always exactly 2, under any schedule. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "m";
    B.global b "n" (Value.Int 0);
    (B.func b "incr" ~params:[] @@ fun f ->
     B.label f "entry";
     B.lock f (B.mutex_ref "m");
     B.load f "v" (Instr.Global "n");
     B.add f "v" (B.reg "v") (B.int 1);
     B.store f (Instr.Global "n") (B.reg "v");
     B.unlock f (B.mutex_ref "m");
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "incr" [];
    B.spawn f "t2" "incr" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.load f "v" (Instr.Global "n");
    B.output f "%v" [ B.reg "v" ];
    B.exit_ f
  in
  for seed = 0 to 20 do
    expect_outputs [ "2" ] (run ~policy:(Sched.Random seed) p)
  done

let timed_lock_timeout_fires () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "m";
    (B.func b "holder" ~params:[] @@ fun f ->
     B.label f "entry";
     B.lock f (B.mutex_ref "m");
     B.sleep f 500;
     B.unlock f (B.mutex_ref "m");
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t" "holder" [];
    B.sleep f 5;
    (* hand-written timed lock, as the transformation would emit *)
    B.emit f (Instr.Timed_lock (Ident.Reg.v "ok", B.mutex_ref "m", 50));
    B.output f "%v" [ B.reg "ok" ];
    B.join f (B.reg "t");
    B.exit_ f
  in
  expect_outputs [ "false" ] (run p)

let timed_lock_acquires_when_free () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "m";
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.emit f (Instr.Timed_lock (Ident.Reg.v "ok", B.mutex_ref "m", 50));
    B.output f "%v" [ B.reg "ok" ];
    B.unlock f (B.mutex_ref "m");
    B.exit_ f
  in
  expect_outputs [ "true" ] (run p)

let sleep_delays_thread () =
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "order" (Value.Int 0);
    (B.func b "slow" ~params:[] @@ fun f ->
     B.label f "entry";
     B.sleep f 100;
     B.store f (Instr.Global "order") (B.int 2);
     B.ret f None);
    (B.func b "fast" ~params:[] @@ fun f ->
     B.label f "entry";
     B.store f (Instr.Global "order") (B.int 1);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "slow" [];
    B.spawn f "t2" "fast" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.load f "v" (Instr.Global "order");
    B.output f "%v" [ B.reg "v" ];
    B.exit_ f
  in
  (* slow writes last despite being spawned first *)
  expect_outputs [ "2" ] (run p)

let determinism_same_seed () =
  let p = Test_util.order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let run_once () =
    let r = run_hardened ~policy:(Sched.Random 99) h in
    (Format.asprintf "%a" Outcome.pp r.outcome, r.outputs, r.stats.steps)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical reruns" true (a = b)

let round_robin_is_fair () =
  (* Two spinning threads plus a finishing main: both spinners advance. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "a" (Value.Int 0);
    B.global b "b" (Value.Int 0);
    (B.func b "wa" ~params:[] @@ fun f ->
     B.label f "entry";
     B.store f (Instr.Global "a") (B.int 1);
     B.ret f None);
    (B.func b "wb" ~params:[] @@ fun f ->
     B.label f "entry";
     B.store f (Instr.Global "b") (B.int 1);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "wa" [];
    B.spawn f "t2" "wb" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.load f "x" (Instr.Global "a");
    B.load f "y" (Instr.Global "b");
    B.add f "s" (B.reg "x") (B.reg "y");
    B.output f "%v" [ B.reg "s" ];
    B.exit_ f
  in
  expect_outputs [ "2" ] (run p)

(* --- Recovery engine pieces -------------------------------------------- *)

let compensation_frees_blocks () =
  (* An allocation inside the reexecution region is freed on rollback: the
     retry loop must not leak. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "flag" (Value.Int 0);
    (B.func b "worker" ~params:[] @@ fun f ->
     B.label f "entry";
     B.alloc f "buf" (B.int 4);
     B.load f "v" (Instr.Global "flag");
     B.assert_ f (B.reg "v") ~msg:"flag set";
     B.store_idx f (B.reg "buf") (B.int 0) (B.reg "v");
     B.ret f None);
    (B.func b "setter" ~params:[] @@ fun f ->
     B.label f "entry";
     B.sleep f 60;
     B.store f (Instr.Global "flag") (B.int 1);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "worker" [];
    B.spawn f "t2" "setter" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.exit_ f
  in
  let h = Conair.harden_exn p Conair.Survival in
  let r = run_hardened h in
  expect_success r;
  Alcotest.(check bool) "rolled back" true (r.stats.rollbacks > 0);
  Alcotest.(check bool) "blocks were compensated" true
    (r.stats.compensated_blocks > 0);
  (* every retry allocated one block; all but the last were released *)
  Alcotest.(check int) "no leak beyond live data" 1
    (match r.machine with
    | Engine.M_block m ->
        Heap.live_blocks (Block_machine.machine m).Machine.heap
    | _ -> Alcotest.fail "expected the block engine (the facade default)")

let retry_counters_per_site () =
  (* Distinct sites get distinct retry budgets. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "x" (Value.Int 0);
    B.global b "y" (Value.Int 0);
    (B.func b "worker" ~params:[] @@ fun f ->
     B.label f "entry";
     B.load f "a" (Instr.Global "x");
     B.assert_ f (B.reg "a") ~msg:"x set";
     B.load f "b" (Instr.Global "y");
     B.assert_ f (B.reg "b") ~msg:"y set";
     B.ret f None);
    (B.func b "setter" ~params:[] @@ fun f ->
     B.label f "entry";
     B.sleep f 40;
     B.store f (Instr.Global "x") (B.int 1);
     B.sleep f 40;
     B.store f (Instr.Global "y") (B.int 1);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "worker" [];
    B.spawn f "t2" "setter" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.exit_ f
  in
  let h = Conair.harden_exn p Conair.Survival in
  let r = run_hardened h in
  expect_success r;
  Alcotest.(check int) "two recovery episodes" 2
    (List.length r.stats.episodes)

let deadlock_backoff_avoids_livelock () =
  (* A symmetric deadlock: both threads' inner locks are recoverable, and
     without randomized backoff they could retry in lockstep forever. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.mutex b "a";
    B.mutex b "b";
    B.global b "done1" (Value.Int 0);
    (B.func b "w1" ~params:[] @@ fun f ->
     B.label f "entry";
     B.lock f (B.mutex_ref "a");
     B.sleep f 10;
     B.lock f (B.mutex_ref "b");
     B.unlock f (B.mutex_ref "b");
     B.unlock f (B.mutex_ref "a");
     B.ret f None);
    (B.func b "w2" ~params:[] @@ fun f ->
     B.label f "entry";
     B.lock f (B.mutex_ref "b");
     B.sleep f 10;
     B.lock f (B.mutex_ref "a");
     B.unlock f (B.mutex_ref "a");
     B.unlock f (B.mutex_ref "b");
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "w1" [];
    B.spawn f "t2" "w2" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.exit_ f
  in
  expect_hang (run p);
  let h = Conair.harden_exn p Conair.Survival in
  expect_success (run_hardened h)

let checkpoint_keeps_latest () =
  (* Two checkpoints in a row: rollback goes to the most recent one. *)
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "flag" (Value.Int 0);
    B.global b "probe" (Value.Int 0);
    (B.func b "worker" ~params:[] @@ fun f ->
     B.label f "entry";
     (* first region boundary *)
     B.store f (Instr.Global "probe") (B.int 1);
     B.load f "p" (Instr.Global "probe");
     (* second region boundary *)
     B.store f (Instr.Global "probe") (B.int 2);
     B.load f "v" (Instr.Global "flag");
     B.assert_ f (B.reg "v") ~msg:"flag";
     B.ret f None);
    (B.func b "setter" ~params:[] @@ fun f ->
     B.label f "entry";
     B.sleep f 50;
     B.store f (Instr.Global "flag") (B.int 1);
     B.ret f None);
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.spawn f "t1" "worker" [];
    B.spawn f "t2" "setter" [];
    B.join f (B.reg "t1");
    B.join f (B.reg "t2");
    B.exit_ f
  in
  let h = Conair.harden_exn p Conair.Survival in
  let r = run_hardened h in
  expect_success r;
  (* rollback to the latest point must not re-execute the first store:
     probe stays 2 and tracecheck sees nothing *)
  Alcotest.(check int) "no violations" 0 r.stats.tracecheck_violations

let stats_consistency () =
  let p = Test_util.interproc_segfault_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let r = run_hardened h in
  expect_success r;
  let s = r.stats in
  Alcotest.(check int) "steps = instrs + idle" s.steps (s.instrs + s.idle);
  Alcotest.(check bool) "episodes retried" true (Stats.total_retries s > 0);
  Alcotest.(check bool) "recovery time positive" true
    (Stats.max_recovery_time s > 0);
  (* per-checkpoint hit counts sum to the total *)
  let sum = Hashtbl.fold (fun _ n acc -> n + acc) s.ckpt_hits 0 in
  Alcotest.(check int) "ckpt hits sum" s.checkpoints sum

let suites =
  [
    ( "heap",
      [
        case "alloc/load/store" heap_alloc_load_store;
        case "free semantics" heap_free_semantics;
        case "snapshot isolation" heap_snapshot_isolated;
      ] );
    ("locks", [ case "basics" locks_basics ]);
    ( "interp",
      [
        case "arithmetic" arithmetic_semantics;
        case "comparisons and booleans" comparison_semantics;
        case "unary operators" unop_semantics;
        case "division by zero faults" division_by_zero_faults;
        case "undefined register faults" undefined_register_faults;
        case "globals and stack slots" globals_and_stack;
        case "undeclared global faults" undeclared_global_faults;
        case "heap instructions" heap_instructions;
        case "null dereference is a segfault" null_deref_is_segfault;
        case "use after free is a segfault" use_after_free_is_segfault;
        case "call and return" call_and_return;
        case "missing return value faults" missing_return_value_faults;
        case "recursion" recursion_works;
        case "output formatting" output_formatting;
      ] );
    ( "sched",
      [
        case "spawn/join ordering" spawn_join_order;
        case "exit terminates everything" exit_terminates_everything;
        case "fuel exhaustion" infinite_loop_exhausts_fuel;
        case "self deadlock hangs" self_deadlock_hangs;
        case "unlock of unheld lock faults" unlock_not_held_faults;
        case "lock contention resolves under any seed"
          lock_contention_resolves;
        case "timed lock timeout" timed_lock_timeout_fires;
        case "timed lock acquires when free" timed_lock_acquires_when_free;
        case "sleep delays a thread" sleep_delays_thread;
        case "determinism for a fixed seed" determinism_same_seed;
        case "round robin is fair" round_robin_is_fair;
      ] );
    ( "recovery-engine",
      [
        case "compensation frees blocks" compensation_frees_blocks;
        case "per-site retry counters" retry_counters_per_site;
        case "deadlock backoff avoids livelock"
          deadlock_backoff_avoids_livelock;
        case "rollback targets the latest checkpoint" checkpoint_keeps_latest;
        case "stats are consistent" stats_consistency;
      ] );
  ]
