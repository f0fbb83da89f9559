(* Tests for the dynamic race/deadlock detector (lib/race).

   Four layers: unit tests of the vector-clock algebra and of each lens
   driven by hand-built event sequences; pattern tests over the bug
   catalog; the bugbench ground-truth sweep (every app, both variants,
   against the expected findings recorded in [Bench_spec.info.detect]);
   and the differential/determinism guarantees — byte-identical JSON
   reports across the two engines and across repeated seeded runs. *)

open Test_util
open Conair.Ir
module B = Builder
module Machine = Conair.Runtime.Machine
module Ref_machine = Conair.Runtime.Ref_machine
module Sched = Conair.Runtime.Sched
module Race_probe = Conair.Runtime.Race_probe
module Hooks = Conair.Runtime.Hooks
module Race = Conair.Race
module Json = Conair.Obs.Json
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Catalog = Conair_bugbench.Catalog

(* --- vector clocks ------------------------------------------------- *)

let vc_basics () =
  let c = Race.Vclock.create () in
  Alcotest.(check int) "fresh reads 0" 0 (Race.Vclock.get c 7);
  Race.Vclock.set c 2 5;
  Race.Vclock.incr c 2;
  Alcotest.(check int) "set+incr" 6 (Race.Vclock.get c 2);
  (* growth well past the initial capacity *)
  Race.Vclock.set c 40 1;
  Alcotest.(check int) "grown entry" 1 (Race.Vclock.get c 40);
  Alcotest.(check int) "old entry survives growth" 6 (Race.Vclock.get c 2);
  Alcotest.(check int) "max_tid" 40 (Race.Vclock.max_tid c)

let vc_join_leq () =
  let a = Race.Vclock.create () and b = Race.Vclock.create () in
  Race.Vclock.set a 0 3;
  Race.Vclock.set b 1 2;
  Alcotest.(check bool) "incomparable: not a<=b" false (Race.Vclock.leq a b);
  Alcotest.(check bool) "incomparable: not b<=a" false (Race.Vclock.leq b a);
  Race.Vclock.join ~into:a b;
  Alcotest.(check int) "join keeps own" 3 (Race.Vclock.get a 0);
  Alcotest.(check int) "join takes other" 2 (Race.Vclock.get a 1);
  Alcotest.(check bool) "b <= a after join" true (Race.Vclock.leq b a);
  let a' = Race.Vclock.copy a in
  Race.Vclock.incr a 0;
  Alcotest.(check int) "copy is independent" 3 (Race.Vclock.get a' 0)

let vc_epochs () =
  let c = Race.Vclock.create () in
  Race.Vclock.set c 1 4;
  let e = Race.Vclock.epoch_of c 1 in
  Alcotest.(check int) "epoch tid" 1 e.Race.Vclock.e_tid;
  Alcotest.(check int) "epoch clock" 4 e.Race.Vclock.e_clock;
  Alcotest.(check bool) "e <= its own clock" true (Race.Vclock.epoch_leq e c);
  let other = Race.Vclock.create () in
  Alcotest.(check bool) "e not <= fresh clock" false
    (Race.Vclock.epoch_leq e other);
  Alcotest.(check bool) "bottom <= anything" true
    (Race.Vclock.epoch_leq Race.Vclock.bottom other)

(* --- hand-built event sequences ------------------------------------ *)

let access ?(step = 0) ?(iid = 0) ?(locks = []) ~tid kind addr =
  {
    Race.Report.ac_step = step;
    ac_tid = tid;
    ac_iid = iid;
    ac_stack = [ "f" ];
    ac_block = "entry";
    ac_kind = kind;
    ac_addr = addr;
    ac_locks = locks;
  }

let g = Race_probe.A_global "x"

let hb_read_write_race () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_access h (access ~tid:1 ~iid:10 Race_probe.Read g);
  Race.Hb.on_access h (access ~tid:2 ~iid:20 Race_probe.Write g);
  match Race.Hb.races h with
  | [ r ] ->
      Alcotest.(check string) "read-write" "read-write"
        (Race.Report.kind_string r.Race.Report.rc_prev.ac_kind
           r.Race.Report.rc_curr.ac_kind);
      Alcotest.(check int) "prev iid" 10 r.Race.Report.rc_prev.ac_iid;
      Alcotest.(check int) "curr iid" 20 r.Race.Report.rc_curr.ac_iid
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let hb_write_write_race () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_access h (access ~tid:1 Race_probe.Write g);
  Race.Hb.on_access h (access ~tid:2 Race_probe.Write g);
  Alcotest.(check int) "one write-write race" 1
    (List.length (Race.Hb.races h))

(* SHB's defining property: a write observed by a reader orders the
   reader behind it (reads-from), so the reader's later write does not
   race — where plain happens-before with write-only checks would still
   be quiet but Eraser-style or unordered-pair analyses would cry wolf. *)
let hb_reads_from_orders () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_access h (access ~tid:1 Race_probe.Write g);
  Race.Hb.on_access h (access ~tid:2 Race_probe.Read g);
  (* rf edge *)
  Race.Hb.on_access h (access ~tid:2 Race_probe.Write g);
  Alcotest.(check int) "read-observed hand-off is quiet" 0
    (List.length (Race.Hb.races h))

let hb_lock_orders () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_acquire h ~tid:1 ~lock:"m";
  Race.Hb.on_access h (access ~tid:1 ~locks:[ "m" ] Race_probe.Write g);
  Race.Hb.on_release h ~tid:1 ~lock:"m";
  Race.Hb.on_acquire h ~tid:2 ~lock:"m";
  Race.Hb.on_access h (access ~tid:2 ~locks:[ "m" ] Race_probe.Write g);
  Race.Hb.on_release h ~tid:2 ~lock:"m";
  Alcotest.(check int) "lock-ordered writes are quiet" 0
    (List.length (Race.Hb.races h))

let hb_join_orders () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_access h (access ~tid:1 Race_probe.Write g);
  Race.Hb.on_join h ~tid:0 ~joined:1;
  Race.Hb.on_access h (access ~tid:0 Race_probe.Write g);
  Alcotest.(check int) "join-ordered writes are quiet" 0
    (List.length (Race.Hb.races h))

let hb_free_race () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_access h
    (access ~tid:1 ~iid:1 Race_probe.Write (Race_probe.A_cell (3, 0)));
  Race.Hb.on_access h
    (access ~tid:2 ~iid:2 Race_probe.Write (Race_probe.A_block 3));
  (* the whole-block free conflicts with the unordered cell write; the
     block address itself is fresh, so exactly one race reports *)
  Alcotest.(check int) "free races the unordered cell write" 1
    (List.length (Race.Hb.races h))

let hb_dedup () =
  let h = Race.Hb.create () in
  Race.Hb.on_spawn h ~parent:0 ~child:1;
  Race.Hb.on_spawn h ~parent:0 ~child:2;
  Race.Hb.on_access h (access ~tid:1 ~iid:10 Race_probe.Read g);
  Race.Hb.on_access h (access ~tid:2 ~iid:20 Race_probe.Write g);
  Race.Hb.on_access h (access ~tid:1 ~iid:10 Race_probe.Read g);
  Race.Hb.on_access h (access ~tid:2 ~iid:20 Race_probe.Write g);
  Alcotest.(check int) "same instruction pair reported once" 1
    (List.length (Race.Hb.races h))

let lockset_consistent () =
  let ls = Race.Lockset.create () in
  Race.Lockset.on_access ls (access ~tid:1 ~locks:[ "m" ] Race_probe.Write g);
  Race.Lockset.on_access ls (access ~tid:2 ~locks:[ "m" ] Race_probe.Write g);
  Race.Lockset.on_access ls (access ~tid:1 ~locks:[ "m" ] Race_probe.Read g);
  Alcotest.(check int) "consistently locked: no warning" 0
    (List.length (Race.Lockset.warnings ls))

let lockset_violation_once () =
  let ls = Race.Lockset.create () in
  Race.Lockset.on_access ls (access ~tid:1 Race_probe.Write g);
  Race.Lockset.on_access ls (access ~tid:2 ~iid:5 Race_probe.Write g);
  Race.Lockset.on_access ls (access ~tid:1 ~iid:6 Race_probe.Write g);
  (match Race.Lockset.warnings ls with
  | [ w ] -> Alcotest.(check int) "warns at the emptying access" 5 w.w_curr.ac_iid
  | ws -> Alcotest.failf "expected 1 warning, got %d" (List.length ws));
  (* refinement to empty happens only once per location *)
  Race.Lockset.on_access ls (access ~tid:2 Race_probe.Write g);
  Alcotest.(check int) "warned once" 1 (List.length (Race.Lockset.warnings ls))

let lockset_exclusive_quiet () =
  let ls = Race.Lockset.create () in
  for i = 0 to 9 do
    Race.Lockset.on_access ls (access ~tid:1 ~iid:i Race_probe.Write g)
  done;
  Alcotest.(check int) "single-thread access never warns" 0
    (List.length (Race.Lockset.warnings ls))

let lockorder_potential () =
  let lo = Race.Lockorder.create () in
  (* t1: A then B; t2: B then A — but never blocked simultaneously *)
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:1 ~step:1 ~lock:"A" ~locks:[ "A" ];
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:2 ~step:2 ~lock:"B"
    ~locks:[ "A"; "B" ];
  Race.Lockorder.on_acquire lo ~tid:2 ~iid:3 ~step:3 ~lock:"B" ~locks:[ "B" ];
  Race.Lockorder.on_acquire lo ~tid:2 ~iid:4 ~step:4 ~lock:"A"
    ~locks:[ "A"; "B" ];
  match Race.Lockorder.finalize lo with
  | [ c ] ->
      Alcotest.(check bool) "potential, not actual" false c.Race.Report.cy_actual;
      Alcotest.(check (list string)) "canonical lock list" [ "A"; "B" ]
        c.Race.Report.cy_locks
  | cs -> Alcotest.failf "expected 1 cycle, got %d" (List.length cs)

let lockorder_actual () =
  let lo = Race.Lockorder.create () in
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:1 ~step:1 ~lock:"A" ~locks:[ "A" ];
  Race.Lockorder.on_acquire lo ~tid:2 ~iid:2 ~step:2 ~lock:"B" ~locks:[ "B" ];
  Race.Lockorder.on_request lo ~tid:1 ~iid:3 ~step:3 ~lock:"B" ~locks:[ "A" ];
  Race.Lockorder.on_request lo ~tid:2 ~iid:4 ~step:4 ~lock:"A" ~locks:[ "B" ];
  match Race.Lockorder.finalize lo with
  | [ c ] ->
      Alcotest.(check bool) "actual" true c.Race.Report.cy_actual;
      Alcotest.(check (list string)) "locks" [ "A"; "B" ] c.Race.Report.cy_locks
  | cs -> Alcotest.failf "expected 1 cycle, got %d" (List.length cs)

let lockorder_self () =
  let lo = Race.Lockorder.create () in
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:1 ~step:1 ~lock:"m" ~locks:[ "m" ];
  Race.Lockorder.on_request lo ~tid:1 ~iid:2 ~step:2 ~lock:"m" ~locks:[ "m" ];
  match Race.Lockorder.finalize lo with
  | [ c ] ->
      Alcotest.(check bool) "actual" true c.Race.Report.cy_actual;
      Alcotest.(check (list string)) "self cycle" [ "m" ] c.Race.Report.cy_locks
  | cs -> Alcotest.failf "expected 1 cycle, got %d" (List.length cs)

(* A cleared pending request must not count as a closed cycle: t1's
   blocked request resolves (it acquires and moves on) before t2 blocks
   the other way — inconsistent order, but nobody deadlocked. *)
let lockorder_cleared_pending () =
  let lo = Race.Lockorder.create () in
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:1 ~step:1 ~lock:"A" ~locks:[ "A" ];
  Race.Lockorder.on_request lo ~tid:1 ~iid:2 ~step:2 ~lock:"B" ~locks:[ "A" ];
  Race.Lockorder.on_acquire lo ~tid:1 ~iid:2 ~step:3 ~lock:"B"
    ~locks:[ "A"; "B" ];
  Race.Lockorder.on_acquire lo ~tid:2 ~iid:4 ~step:9 ~lock:"B" ~locks:[ "B" ];
  Race.Lockorder.on_request lo ~tid:2 ~iid:5 ~step:10 ~lock:"A" ~locks:[ "B" ];
  match Race.Lockorder.finalize lo with
  | [ c ] ->
      Alcotest.(check bool) "potential only — the wait resolved" false
        c.Race.Report.cy_actual
  | cs -> Alcotest.failf "expected 1 cycle, got %d" (List.length cs)

(* --- whole-machine detection --------------------------------------- *)

let detect_config =
  { Machine.default_config with fuel = 8_000_000 }

let detect_hardened ?(config = detect_config) p =
  let h = Conair.harden_exn p Conair.Survival in
  snd (Conair.run_detected ~config (Conair.Hardened h))

let race_addrs (r : Race.Report.t) =
  List.sort_uniq compare
    (List.map
       (fun rc -> Race.Report.addr_string rc.Race.Report.rc_addr)
       r.Race.Report.races)

let has_actual (r : Race.Report.t) =
  List.exists (fun c -> c.Race.Report.cy_actual) r.Race.Report.cycles

let actual_locks (r : Race.Report.t) =
  List.filter_map
    (fun c ->
      if c.Race.Report.cy_actual then Some c.Race.Report.cy_locks else None)
    r.Race.Report.cycles

(* A data-race-free program: both threads touch the shared counter only
   under the lock. Nothing may be reported, on any lens, hardened or
   not. *)
let drf_program () =
  B.build ~main:"main" @@ fun b ->
  B.global b "counter" (Value.Int 0);
  B.mutex b "m";
  (B.func b "bump" ~params:[] @@ fun f ->
   B.label f "entry";
   B.lock f (B.mutex_ref "m");
   B.load f "c" (Instr.Global "counter");
   B.add f "c'" (B.reg "c") (B.int 1);
   B.store f (Instr.Global "counter") (B.reg "c'");
   B.unlock f (B.mutex_ref "m");
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "bump" [];
  B.spawn f "t2" "bump" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  (* locked even though the joins order it: Eraser has no happens-before,
     so an unlocked read here would (correctly, for Eraser) warn *)
  B.lock f (B.mutex_ref "m");
  B.load f "c" (Instr.Global "counter");
  B.unlock f (B.mutex_ref "m");
  B.output f "count=%v" [ B.reg "c" ];
  B.exit_ f

let drf_quiet () =
  let p = drf_program () in
  List.iter
    (fun report ->
      Alcotest.(check int) "no races" 0 (List.length report.Race.Report.races);
      Alcotest.(check int) "no warnings" 0
        (List.length report.Race.Report.warnings);
      Alcotest.(check int) "no cycles" 0
        (List.length report.Race.Report.cycles))
    [
      detect_hardened p;
      snd (Conair.run_detected ~config:detect_config (Conair.Program p));
      snd
        (Conair.run_detected
           ~config:{ detect_config with policy = Sched.Random 3 }
           (Conair.Program p));
    ]

(* Catalog patterns: the unrecoverable ones (self-deadlock) retry until
   their budget runs out, so keep it small — detection sees the events
   either way. *)
let pattern_config =
  { Machine.default_config with fuel = 500_000; max_retries = 400 }

let catalog_entry name =
  match List.find_opt (fun (e : Catalog.entry) -> e.name = name) (Catalog.all ())
  with
  | Some e -> e
  | None -> Alcotest.failf "no catalog entry %s" name

let catalog_three_way () =
  let report =
    detect_hardened ~config:pattern_config
      (catalog_entry "three-way-deadlock").program
  in
  Alcotest.(check (list (list string))) "one actual 3-cycle"
    [ [ "A"; "B"; "C" ] ]
    (actual_locks report)

let catalog_self_deadlock () =
  let report =
    detect_hardened ~config:pattern_config (catalog_entry "self-deadlock").program
  in
  Alcotest.(check (list (list string))) "self cycle" [ [ "m" ] ]
    (actual_locks report)

(* The use-after-free's root cause is the unsynchronized check-then-use
   on the [freed] flag: the flag write races the guard read. (The freed
   cell itself stays quiet here — the racy read follows the last write
   to the block, and SHB checks conflicts only at writes.) *)
let catalog_racy_free () =
  let report =
    detect_hardened ~config:pattern_config (catalog_entry "racy-free").program
  in
  Alcotest.(check (list string)) "the guard flag races" [ "global:freed" ]
    (race_addrs report)

let catalog_multi_producer () =
  let report =
    detect_hardened ~config:pattern_config
      (catalog_entry "multi-producer").program
  in
  Alcotest.(check bool) "the unprotected pattern races" true
    (report.Race.Report.races <> [])

(* --- bugbench ground truth ----------------------------------------- *)

let ground_truth_case (s : Spec.t) variant () =
  let inst = s.Spec.make ~variant ~oracle:s.Spec.info.needs_oracle in
  let report = detect_hardened inst.Spec.program in
  let gt = s.Spec.info.detect in
  let expected_races, expected_deadlock =
    match variant with
    | Spec.Buggy -> (gt.Spec.races_buggy, gt.Spec.deadlock_buggy)
    | Spec.Clean -> (gt.Spec.races_clean, gt.Spec.deadlock_clean)
  in
  Alcotest.(check (list string))
    (s.Spec.info.name ^ ": race addresses match the ground truth")
    expected_races (race_addrs report);
  Alcotest.(check bool)
    (s.Spec.info.name ^ ": actual-deadlock verdict matches")
    expected_deadlock (has_actual report)

let ground_truth_cases =
  List.concat_map
    (fun (s : Spec.t) ->
      [
        case (s.Spec.info.name ^ " buggy") (ground_truth_case s Spec.Buggy);
        case (s.Spec.info.name ^ " clean") (ground_truth_case s Spec.Clean);
      ])
    (Registry.all @ Registry.extended)

(* Clean variants whose ground truth is empty stay completely quiet on
   the race lens — the zero-false-positive guarantee SHB buys us. *)
let clean_zero_false_positives () =
  List.iter
    (fun (s : Spec.t) ->
      if s.Spec.info.detect.Spec.races_clean = [] then begin
        let inst = s.Spec.make ~variant:Spec.Clean ~oracle:s.Spec.info.needs_oracle in
        let report = detect_hardened inst.Spec.program in
        Alcotest.(check (list string))
          (s.Spec.info.name ^ ": clean variant is race-quiet")
          [] (race_addrs report)
      end)
    Registry.all

(* --- differential and determinism ---------------------------------- *)

let differential_on ~policy (p : Program.t) meta name =
  let config = { Machine.default_config with policy; fuel = 8_000_000 } in
  let fast =
    let d = Race.Detect.create () in
    let m =
      Machine.create ~config ?meta
        ~hooks:(Hooks.bundle ~race:(Race.Detect.probe d) ())
        p
    in
    ignore (Machine.run m);
    Json.to_string (Race.Report.to_json (Race.Detect.report d))
  in
  let slow =
    let d = Race.Detect.create () in
    let m =
      Ref_machine.create ~config ?meta
        ~hooks:(Hooks.bundle ~race:(Race.Detect.probe d) ())
        p
    in
    ignore (Ref_machine.run m);
    Json.to_string (Race.Report.to_json (Race.Detect.report d))
  in
  Alcotest.(check string) (name ^ ": engines agree byte-for-byte") fast slow

let differential_corpus () =
  let hardened_of p =
    let h = Conair.harden_exn p Conair.Survival in
    (h.Conair.hardened.Conair_transform.Harden.program,
     Some (Machine.meta_of_harden h.Conair.hardened))
  in
  let apps =
    List.filter_map
      (fun name ->
        Option.map
          (fun (s : Spec.t) ->
            let i = s.Spec.make ~variant:Spec.Buggy ~oracle:s.Spec.info.needs_oracle in
            (name, i.Spec.program))
          (Registry.find name))
      [ "HawkNL"; "SQLite"; "MySQL2"; "FFT" ]
  in
  let patterns =
    List.map
      (fun n -> (n, (catalog_entry n).Catalog.program))
      [ "three-way-deadlock"; "racy-free"; "multi-producer" ]
  in
  List.iter
    (fun (name, p) ->
      let hp, meta = hardened_of p in
      differential_on ~policy:Sched.Round_robin hp meta (name ^ "/rr");
      differential_on ~policy:(Sched.Random 42) hp meta (name ^ "/rand42"))
    (apps @ patterns)

(* The Sched guarantee: reports are deterministic in (program, policy,
   seed) — same seed, byte-identical race report. *)
let seeded_determinism () =
  let s = Option.get (Registry.find "SQLite") in
  let i = s.Spec.make ~variant:Spec.Buggy ~oracle:false in
  let h = Conair.harden_exn i.Spec.program Conair.Survival in
  let once () =
    let config =
      { Machine.default_config with policy = Sched.Random 11; fuel = 8_000_000 }
    in
    let _, report = Conair.run_detected ~config (Conair.Hardened h) in
    Json.to_string (Race.Report.to_json report)
  in
  Alcotest.(check string) "same seed, same bytes" (once ()) (once ())

(* --- the tutorial program ------------------------------------------ *)

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let tutorial_path =
  if Sys.file_exists "../examples/tutorial.mir" then "../examples/tutorial.mir"
  else "examples/tutorial.mir"

let tutorial_program () =
  let src = In_channel.with_open_text tutorial_path In_channel.input_all in
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "tutorial.mir: %a" Parse.pp_error e

(* Every step of docs/TUTORIAL.md, in order: the bug manifests
   unhardened, the detector names the root cause, hardening recovers. *)
let tutorial_walkthrough () =
  let p = tutorial_program () in
  check_valid p;
  let r0 = run p in
  expect_failure_kind Instr.Assert_fail r0;
  let report = detect_hardened p in
  Alcotest.(check (list string)) "detector names the racy global"
    [ "global:balance" ] (race_addrs report);
  Alcotest.(check int) "lockset agrees" 1
    (List.length report.Race.Report.warnings);
  Alcotest.(check int) "no deadlock" 0 (List.length report.Race.Report.cycles);
  let h = Conair.harden_exn p Conair.Survival in
  let r1 = run_hardened h in
  expect_success r1;
  Alcotest.(check (list string)) "recovered output" [ "audit saw 100" ]
    r1.outputs;
  Alcotest.(check bool) "recovery actually ran" true (r1.stats.rollbacks > 0)

let suites =
  [
    ( "race.vclock",
      [
        case "basics" vc_basics;
        case "join and leq" vc_join_leq;
        case "epochs" vc_epochs;
      ] );
    ( "race.hb",
      [
        case "read-write race" hb_read_write_race;
        case "write-write race" hb_write_write_race;
        case "reads-from orders" hb_reads_from_orders;
        case "lock orders" hb_lock_orders;
        case "join orders" hb_join_orders;
        case "free race" hb_free_race;
        case "dedup" hb_dedup;
      ] );
    ( "race.lockset",
      [
        case "consistent locking is quiet" lockset_consistent;
        case "violation warns once" lockset_violation_once;
        case "exclusive is quiet" lockset_exclusive_quiet;
      ] );
    ( "race.lockorder",
      [
        case "potential cycle" lockorder_potential;
        case "actual cycle" lockorder_actual;
        case "self deadlock" lockorder_self;
        case "cleared pending is only potential" lockorder_cleared_pending;
      ] );
    ( "race.patterns",
      [
        case "drf program is quiet" drf_quiet;
        case "three-way deadlock" catalog_three_way;
        case "self-deadlock" catalog_self_deadlock;
        case "racy free" catalog_racy_free;
        case "multi-producer" catalog_multi_producer;
      ] );
    ("race.ground-truth", ground_truth_cases);
    ( "race.guarantees",
      [
        case "clean variants race-quiet" clean_zero_false_positives;
        slow_case "engines agree" differential_corpus;
        case "seeded determinism" seeded_determinism;
      ] );
    ("race.tutorial", [ case "walkthrough" tutorial_walkthrough ]);
  ]
