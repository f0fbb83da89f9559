(* Tests for automated fix synthesis (lib/fix).

   Four layers: candidate synthesis on hand-built racy programs (grammar
   coverage, Validate-cleanliness, dedup, caps) plus the Rewrite
   primitive it leans on; each validation gate rejecting a deliberately
   bad candidate; the end-to-end pipeline over the bugbench catalog
   (every buggy app must yield a surviving candidate, MySQL1 at the
   acceptance budget of 100 sweep seeds); and the cross-engine
   byte-identity of the fix report JSON. The fix.docs suite pins the
   worked example of docs/FIXING.md. *)

open Test_util
open Conair.Ir
module Machine = Conair.Runtime.Machine
module Outcome = Conair.Runtime.Outcome
module Rewrite = Conair.Transform.Rewrite
module Race = Conair.Race
module Driver = Conair.Replay.Driver
module Log = Conair.Replay.Log
module Patch = Conair.Fix.Patch
module Gates = Conair.Fix.Gates
module Pipeline = Conair.Fix.Pipeline
module Json = Conair.Obs.Json
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

(* --- helpers ------------------------------------------------------- *)

let detect_config = { Machine.default_config with fuel = 8_000_000 }

let report_of p =
  let h = Conair.harden_exn p Conair.Survival in
  snd (Conair.run_detected ~config:detect_config (Conair.Hardened h))

let instance name variant =
  match Registry.find name with
  | None -> Alcotest.failf "no bugbench app named %s" name
  | Some s -> s.Spec.make ~variant ~oracle:s.Spec.info.needs_oracle

let strategies cands = List.map (fun c -> c.Patch.p_strategy) cands

let op_of_iid p iid =
  let found = ref None in
  Program.iter_funcs p (fun f ->
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          if i.Instr.iid = iid then found := Some i.Instr.op));
  match !found with
  | Some op -> op
  | None -> Alcotest.failf "no instruction with iid %d" iid

let instr_count p =
  let n = ref 0 in
  Program.iter_funcs p (fun f -> n := !n + Func.instr_count f);
  !n

(* --- candidate synthesis ------------------------------------------- *)

let synthesis_order_violation () =
  let p = order_violation_program ~buggy:true () in
  let report = report_of p in
  let cands = Patch.synthesize p report in
  Alcotest.(check bool) "candidates synthesized" true (cands <> []);
  List.iter (fun (c : Patch.t) -> check_valid c.Patch.p_program) cands;
  let strats = strategies cands in
  Alcotest.(check bool) "lock ladder present" true
    (List.mem Patch.Lock_span strats || List.mem Patch.Lock_access strats);
  Alcotest.(check bool) "order candidates present" true
    (List.mem Patch.Order strats);
  (* both directions of the order enforcement are offered *)
  let order_ids =
    List.filter_map
      (fun c -> if c.Patch.p_strategy = Patch.Order then Some c.Patch.p_id else None)
      cands
  in
  Alcotest.(check int) "two order directions" 2 (List.length order_ids);
  (* ids are unique within a synthesis run *)
  let ids = List.map (fun c -> c.Patch.p_id) cands in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* a lock-ladder candidate declares the fresh mutex it introduces *)
  List.iter
    (fun (c : Patch.t) ->
      if List.mem Patch.fix_mutex c.Patch.p_sync then
        Alcotest.(check bool) "fix mutex declared" true
          (List.mem Patch.fix_mutex c.Patch.p_program.Program.mutexes))
    cands;
  (* inserted instructions got fresh ids: the patched program's id space
     strictly grows where edits were made *)
  List.iter
    (fun (c : Patch.t) ->
      if c.Patch.p_strategy <> Patch.Fuse then
        Alcotest.(check bool)
          (c.Patch.p_id ^ ": patched program gained instructions")
          true
          (instr_count c.Patch.p_program > instr_count p))
    cands

let synthesis_deadlock () =
  let p = deadlock_program ~buggy:true () in
  let report = report_of p in
  Alcotest.(check bool) "fixture deadlocks" true
    (List.exists (fun c -> c.Race.Report.cy_actual) report.Race.Report.cycles);
  let cands = Patch.synthesize p report in
  List.iter (fun (c : Patch.t) -> check_valid c.Patch.p_program) cands;
  let fuse =
    List.filter (fun c -> c.Patch.p_strategy = Patch.Fuse) cands
  in
  (match fuse with
  | [ f ] ->
      Alcotest.(check (list string)) "fuse introduces the fused mutex"
        [ Patch.fuse_mutex ] f.Patch.p_sync;
      Alcotest.(check bool) "fused mutex declared" true
        (List.mem Patch.fuse_mutex f.Patch.p_program.Program.mutexes);
      (* fusion rewrites in place: no instructions added or removed *)
      Alcotest.(check int) "fusion preserves instruction count"
        (instr_count p)
        (instr_count f.Patch.p_program)
  | l -> Alcotest.failf "expected exactly 1 fuse candidate, got %d" (List.length l))

let synthesis_quiet () =
  let p = straightline_program () in
  let report = report_of p in
  let cands = Patch.synthesize p report in
  Alcotest.(check int) "quiet report, no candidates" 0 (List.length cands)

let synthesis_cap () =
  let p = order_violation_program ~buggy:true () in
  let report = report_of p in
  let all = Patch.synthesize p report in
  let capped = Patch.synthesize ~max_candidates:2 p report in
  Alcotest.(check bool) "fixture yields more than two" true
    (List.length all > 2);
  Alcotest.(check int) "cap respected" 2 (List.length capped);
  (* the cap keeps the grammar's prefix, in order *)
  Alcotest.(check (list string)) "cap is a prefix"
    (List.filteri (fun i _ -> i < 2) (List.map (fun c -> c.Patch.p_id) all))
    (List.map (fun c -> c.Patch.p_id) capped)

let synthesis_deterministic () =
  let p = order_violation_program ~buggy:true () in
  let report = report_of p in
  let edits c = String.concat "\n" c.Patch.p_edits in
  Alcotest.(check (list string)) "same program, same candidates"
    (List.map edits (Patch.synthesize p report))
    (List.map edits (Patch.synthesize p report))

(* --- the Rewrite primitive the synthesizer leans on ----------------- *)

let replace_op_swaps () =
  let p = deadlock_program ~buggy:true () in
  let lock_iid =
    let found = ref None in
    Program.iter_funcs p (fun f ->
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Lock (Instr.Const (Value.Mutex "nlock")) when !found = None
              ->
                found := Some i.Instr.iid
            | _ -> ()));
    Option.get !found
  in
  let rw = Rewrite.create () in
  Rewrite.replace_op rw lock_iid
    (Instr.Lock (Instr.Const (Value.Mutex "slock")));
  let p', _ = Rewrite.apply rw p in
  check_valid p';
  (match op_of_iid p' lock_iid with
  | Instr.Lock (Instr.Const (Value.Mutex "slock")) -> ()
  | _ -> Alcotest.fail "operation was not swapped in place");
  Alcotest.(check int) "replacement adds no instructions" (instr_count p)
    (instr_count p')

let replace_op_conflicts () =
  let rw = Rewrite.create () in
  Rewrite.replace_op rw 1 Instr.Nop;
  match Rewrite.replace_op rw 1 Instr.Nop with
  | () -> Alcotest.fail "double replacement must be rejected"
  | exception Invalid_argument _ -> ()

(* --- the three gates ----------------------------------------------- *)

let gate_config = { Machine.default_config with fuel = 500_000 }

(* The unpatched program is the canonical bad candidate: its own failing
   schedule must keep failing through the directed feed. *)
let replay_gate_rejects_unpatched () =
  let p = deadlock_program ~buggy:true () in
  let ident = Log.ident ~variant:"buggy" ~mode:"none" "deadlock-fixture" in
  let rb, log = Driver.record ~config:gate_config ~ident p in
  Alcotest.(check bool) "recorded run fails" false
    (Outcome.is_success rb.Driver.rb_outcome);
  let g = Gates.replay_gate ~log p in
  Alcotest.(check bool) "unpatched program fails gate 1" false g.Gates.g_passed

let replay_gate_accepts_fused () =
  let p = deadlock_program ~buggy:true () in
  let ident = Log.ident ~variant:"buggy" ~mode:"none" "deadlock-fixture" in
  let _, log = Driver.record ~config:gate_config ~ident p in
  let fuse =
    List.find
      (fun c -> c.Patch.p_strategy = Patch.Fuse)
      (Patch.synthesize p (report_of p))
  in
  let g = Gates.replay_gate ~log fuse.Patch.p_program in
  Alcotest.(check bool)
    ("lock fusion passes gate 1: " ^ g.Gates.g_detail)
    true g.Gates.g_passed

let regression_gate_directions () =
  let bad = Gates.sweep ~config:gate_config ~seeds:8
      (deadlock_program ~buggy:true ())
  in
  Alcotest.(check bool) "buggy sweep records failures" true
    (bad.Gates.sw_failures > 0);
  let g = Gates.regression_gate bad in
  Alcotest.(check bool) "failing sweep fails gate 2" false g.Gates.g_passed;
  let ok = Gates.sweep ~config:gate_config ~seeds:8 (straightline_program ()) in
  let g = Gates.regression_gate ok in
  Alcotest.(check bool) "clean sweep passes gate 2" true g.Gates.g_passed

let deadlock_gate_directions () =
  let cyclic =
    Gates.sweep ~config:gate_config ~seeds:8 (deadlock_program ~buggy:true ())
  in
  Alcotest.(check bool) "cycle keys minted" true
    (cyclic.Gates.sw_cycle_keys <> []);
  let quiet =
    Gates.sweep ~config:gate_config ~seeds:8 (straightline_program ())
  in
  (* a candidate minting cycles the baseline never had is rejected... *)
  let g = Gates.deadlock_gate ~baseline:quiet cyclic in
  Alcotest.(check bool) "fresh cycles fail gate 3" false g.Gates.g_passed;
  (* ...but pre-existing cycles are not held against it *)
  let g = Gates.deadlock_gate ~baseline:cyclic cyclic in
  Alcotest.(check bool) "pre-existing cycles pass gate 3" true
    g.Gates.g_passed

(* --- the end-to-end pipeline --------------------------------------- *)

let all_gates_passed (c : Pipeline.candidate) =
  List.for_all (fun g -> g.Gates.g_passed) c.c_gates

(* Acceptance budget: >= 100 fuzz seeds behind gates 2+3. *)
let mysql1_end_to_end () =
  let inst = instance "MySQL1" Spec.Buggy in
  let options =
    { Pipeline.default_options with sweep_seeds = 100; search_seeds = 10 }
  in
  let t =
    Pipeline.run ~options ~accept:inst.Spec.accept ~app:"MySQL1"
      ~variant:"buggy" inst.Spec.program
  in
  Alcotest.(check bool) "a failing schedule was found" true
    (t.Pipeline.fx_failure <> None);
  (match t.Pipeline.fx_minimized with
  | Some (before, after) ->
      Alcotest.(check bool) "minimization never widens" true (after <= before)
  | None -> Alcotest.fail "failing schedule was not minimized");
  Alcotest.(check bool) "at least one candidate survives all gates" true
    (t.Pipeline.fx_survivors >= 1);
  (* every reported survivor actually passed all three gates and was
     costed; every non-survivor records which gate rejected it *)
  List.iter
    (fun (c : Pipeline.candidate) ->
      Alcotest.(check int)
        (c.c_patch.Patch.p_id ^ ": three gates")
        3
        (List.length c.c_gates);
      if c.c_survived then begin
        Alcotest.(check bool) (c.c_patch.Patch.p_id ^ ": gates green") true
          (all_gates_passed c);
        Alcotest.(check bool) (c.c_patch.Patch.p_id ^ ": costed") true
          (c.c_cost <> None)
      end
      else
        Alcotest.(check bool)
          (c.c_patch.Patch.p_id ^ ": a gate names the rejection")
          true
          (not (all_gates_passed c)))
    t.Pipeline.fx_candidates;
  (* the walk-outward story: the narrowest ladder rung does not heal
     MySQL1, a wider extent does *)
  let by_strategy s =
    List.filter
      (fun (c : Pipeline.candidate) -> c.c_patch.Patch.p_strategy = s)
      t.Pipeline.fx_candidates
  in
  Alcotest.(check bool) "per-access locking is rejected" true
    (List.exists (fun (c : Pipeline.candidate) -> not c.c_survived)
       (by_strategy Patch.Lock_access));
  Alcotest.(check bool) "a wider ladder rung survives" true
    (List.exists (fun (c : Pipeline.candidate) -> c.c_survived)
       (by_strategy Patch.Lock_span @ by_strategy Patch.Lock_block));
  (* ranking: survivors first, cheapest first *)
  let rec check_ranked seen_rejected prev = function
    | [] -> ()
    | (c : Pipeline.candidate) :: rest ->
        if c.c_survived then begin
          Alcotest.(check bool) "survivors precede rejections" false
            seen_rejected;
          (match (prev, c.c_cost) with
          | Some a, Some b ->
              Alcotest.(check bool) "survivors ordered by mean cost" true
                (a.Conair.Obs.Overhead.k_mean_instrs
                <= b.Conair.Obs.Overhead.k_mean_instrs)
          | _ -> ());
          check_ranked seen_rejected c.c_cost rest
        end
        else check_ranked true prev rest
  in
  check_ranked false None t.Pipeline.fx_candidates;
  (* the paper's cost story: a real fix is far cheaper than hardening
     the program for perpetual recovery *)
  match (t.Pipeline.fx_hardened_overhead_pct, t.Pipeline.fx_candidates) with
  | Some hardened, { c_overhead_pct = Some fix; _ } :: _ ->
      Alcotest.(check bool) "fixing beats perpetual recovery" true
        (fix < hardened)
  | _ -> Alcotest.fail "missing overhead measurements"

(* Every fixable buggy catalog app must end the pipeline with at least
   one surviving candidate — the detect -> explain -> repair loop
   closes on the whole bug suite. Apache is the honest exception: its
   check-then-act bug overflows a capacity even under full
   serialization (the real fix is semantic — wait for the flusher), so
   the grammar has no fixing candidate and the pipeline must say so
   with zero survivors rather than pass a placebo. *)
let catalog_sweep () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.Spec.make ~variant:Spec.Buggy ~oracle:s.Spec.info.needs_oracle in
      let options =
        { Pipeline.default_options with sweep_seeds = 16; search_seeds = 10 }
      in
      let t =
        Pipeline.run ~options ~accept:inst.Spec.accept ~app:s.Spec.info.name
          ~variant:"buggy" inst.Spec.program
      in
      if s.Spec.info.name = "Apache" then begin
        Alcotest.(check bool) "Apache: candidates were synthesized and gated"
          true
          (t.Pipeline.fx_candidates <> []);
        Alcotest.(check int) "Apache: no placebo survives the gates" 0
          t.Pipeline.fx_survivors
      end
      else
        Alcotest.(check bool)
          (s.Spec.info.name ^ ": at least one surviving candidate")
          true
          (t.Pipeline.fx_survivors >= 1))
    (Registry.all @ Registry.extended)

let clean_variant_quiet () =
  let inst = instance "MySQL1" Spec.Clean in
  let options =
    { Pipeline.default_options with sweep_seeds = 4; search_seeds = 4 }
  in
  let t =
    Pipeline.run ~options ~accept:inst.Spec.accept ~app:"MySQL1"
      ~variant:"clean" inst.Spec.program
  in
  Alcotest.(check bool) "no failing schedule on the clean variant" true
    (t.Pipeline.fx_failure = None);
  Alcotest.(check int) "no candidates" 0 (List.length t.Pipeline.fx_candidates);
  Alcotest.(check int) "no survivors" 0 t.Pipeline.fx_survivors

(* --- report determinism -------------------------------------------- *)

(* The @fix set: one atomicity violation and two deadlocks, whose
   multi-eligible phases give the densest preemption streams. *)
let fix_apps = [ "MySQL1"; "HawkNL"; "MozillaJS" ]

let identity_options =
  { Pipeline.default_options with sweep_seeds = 16; search_seeds = 5 }

let fix_report ?(options = identity_options) name =
  let inst = instance name Spec.Buggy in
  Pipeline.run ~options ~accept:inst.Spec.accept ~app:name ~variant:"buggy"
    inst.Spec.program

(* Each app's report at the library default engine, byte for byte on the
   other two. *)
let json_engine_identity () =
  List.iter
    (fun name ->
      let json options =
        Json.to_string (Pipeline.to_json (fix_report ~options name))
      in
      let default = json identity_options in
      List.iter
        (fun engine ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s report is byte-identical" name
               (Conair.Runtime.Engine.name engine))
            default
            (json { identity_options with engine }))
        Conair.Runtime.Engine.[ Ref; Fast ])
    fix_apps

(* Gates.sweep — runs, failures, rejections, distinct signatures, cycle
   keys — agrees across the engines on every candidate of the @fix set
   and on the unpatched baseline. *)
let sweep_engine_identity () =
  let config =
    {
      Machine.default_config with
      fuel = identity_options.Pipeline.fuel;
      max_retries = identity_options.Pipeline.max_retries;
    }
  in
  List.iter
    (fun name ->
      let inst = instance name Spec.Buggy in
      let programs =
        ("baseline", inst.Spec.program)
        :: List.map
             (fun (c : Pipeline.candidate) ->
               (c.c_patch.Patch.p_id, c.c_patch.Patch.p_program))
             (fix_report name).Pipeline.fx_candidates
      in
      Alcotest.(check bool) (name ^ ": has candidates") true
        (List.length programs > 1);
      List.iter
        (fun (id, p) ->
          let sweep engine =
            Gates.sweep ~engine ~accept:inst.Spec.accept ~config
              ~seeds:identity_options.Pipeline.sweep_seeds p
          in
          let block = sweep Conair.Runtime.Engine.Block in
          List.iter
            (fun engine ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: %s sweep" name id
                   (Conair.Runtime.Engine.name engine))
                true
                (sweep engine = block))
            Conair.Runtime.Engine.[ Ref; Fast ])
        programs)
    fix_apps

(* --- docs/FIXING.md ------------------------------------------------ *)

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let fixing_doc_path () =
  if Sys.file_exists "../docs/FIXING.md" then "../docs/FIXING.md"
  else "docs/FIXING.md"

(* The worked example of docs/FIXING.md, performed in-process: same app,
   same knobs, and every number the text commits to. If this test moves,
   the doc moves with it. *)
let fixing_doc_walkthrough () =
  let doc = In_channel.with_open_text (fixing_doc_path ()) In_channel.input_all in
  let pinned = "fix MySQL1 --sweep-seeds 25 --search-seeds 10" in
  Alcotest.(check bool) "the doc shows the pinned command" true
    (let rec scan i =
       i + String.length pinned <= String.length doc
       && (String.sub doc i (String.length pinned) = pinned || scan (i + 1))
     in
     scan 0);
  let inst = instance "MySQL1" Spec.Buggy in
  let options =
    { Pipeline.default_options with sweep_seeds = 25; search_seeds = 10 }
  in
  let t =
    Pipeline.run ~options ~accept:inst.Spec.accept ~app:"MySQL1"
      ~variant:"buggy" inst.Spec.program
  in
  (* the numbers the doc's transcript shows *)
  Alcotest.(check int) "five candidates" 5 (List.length t.Pipeline.fx_candidates);
  Alcotest.(check int) "three survivors" 3 t.Pipeline.fx_survivors;
  Alcotest.(check (option (pair int int))) "minimized 6 -> 2 preemptions"
    (Some (6, 2)) t.Pipeline.fx_minimized;
  Alcotest.(check (option string)) "round-robin found the failure"
    (Some "round-robin") t.Pipeline.fx_fail_policy;
  (* and its shape: lock-access rejected, the order fix cheapest *)
  (match t.Pipeline.fx_candidates with
  | first :: _ ->
      Alcotest.(check bool) "cheapest survivor is the order fix" true
        (first.c_patch.Patch.p_strategy = Patch.Order && first.c_survived)
  | [] -> Alcotest.fail "no candidates");
  Alcotest.(check bool) "lock-access is rejected" true
    (List.exists
       (fun (c : Pipeline.candidate) ->
         c.c_patch.Patch.p_strategy = Patch.Lock_access && not c.c_survived)
       t.Pipeline.fx_candidates)

let suites =
  [
    ( "fix.synthesis",
      [
        case "order violation grammar" synthesis_order_violation;
        case "deadlock fusion" synthesis_deadlock;
        case "quiet report" synthesis_quiet;
        case "candidate cap" synthesis_cap;
        case "deterministic" synthesis_deterministic;
      ] );
    ( "fix.rewrite",
      [
        case "replace_op swaps in place" replace_op_swaps;
        case "replace_op conflicts" replace_op_conflicts;
      ] );
    ( "fix.gates",
      [
        case "replay gate rejects the unpatched program"
          replay_gate_rejects_unpatched;
        case "replay gate accepts lock fusion" replay_gate_accepts_fused;
        case "regression gate both directions" regression_gate_directions;
        case "deadlock gate both directions" deadlock_gate_directions;
      ] );
    ( "fix.pipeline",
      [
        slow_case "MySQL1 end to end (100 seeds)" mysql1_end_to_end;
        slow_case "catalog sweep" catalog_sweep;
        case "clean variant stays quiet" clean_variant_quiet;
      ] );
    ( "fix.guarantees",
      [
        slow_case "engines agree on the report" json_engine_identity;
        slow_case "engines agree on every sweep" sweep_engine_identity;
      ] );
    ("fix.docs", [ slow_case "FIXING.md walkthrough" fixing_doc_walkthrough ]);
  ]
