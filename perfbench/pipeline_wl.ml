(* pipeline: Mir text -> Ir.Parse -> Plan.analyze -> Harden.apply ->
   link (and compile, on the block engine) -> one bare run, checked
   against the program's oracle. Every iteration parses fresh text, so
   the physical-identity Link memo misses, as a CLI `file` run does. *)

open Util
module Ir = Conair.Ir
module Plan = Conair.Analysis.Plan
module Harden = Conair.Transform.Harden
module Report = Conair.Transform.Report
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Link = Conair.Runtime.Link
module Compile = Conair.Runtime.Compile
module Outcome = Conair.Runtime.Outcome
module Spec = Conair_bugbench.Bench_spec

type prog = {
  label : string;
  text : string;  (** the Mir source every iteration parses *)
  mode : Conair.mode;
  accept : string list -> bool;
}

type ctx = { progs : prog array; order : Random.State.t }

let synthetic_stages = [ 25; 50; 100; 200 ]

let synthetic stages =
  let module B = Ir.Builder in
  B.build ~main:"main" @@ fun b ->
  Conair_bugbench.Mirlib.add_stdlib ~stages b;
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.call f ~into:"v" "vec_new" [ B.int 8 ];
  B.call f ~into:"ck" "run_pipeline" [ B.reg "v" ];
  B.output f "ck=%v" [ B.reg "ck" ];
  B.exit_ f

(* The 12 catalog apps x {buggy, clean} x {survival, fix}, plus the
   synthetic stdlib programs. A synthetic program's oracle is its own
   unhardened output. *)
let inputs () =
  let apps =
    List.concat_map
      (fun (spec : Spec.t) ->
        List.concat_map
          (fun (variant, vname) ->
            let inst = Apps.instance ~variant spec in
            let text = Ir.Emit.program inst.Spec.program in
            List.map
              (fun (mode, mname) ->
                {
                  label = Printf.sprintf "%s/%s/%s" spec.Spec.info.Spec.name vname mname;
                  text;
                  mode;
                  accept = inst.Spec.accept;
                })
              [ (Conair.Survival, "survival"); (Conair.Fix inst.Spec.fix_site_iids, "fix") ])
          [ (Spec.Buggy, "buggy"); (Spec.Clean, "clean") ])
      Apps.all
  in
  let synth =
    List.map
      (fun stages ->
        let p = synthetic stages in
        let expected = (Conair.execute p).Conair.outputs in
        {
          label = Printf.sprintf "synthetic/%d" stages;
          text = Ir.Emit.program p;
          mode = Conair.Survival;
          accept = (fun out -> out = expected);
        })
      synthetic_stages
  in
  Array.of_list (apps @ synth)

let setup ~seed = { progs = inputs (); order = rng ~seed "pipeline.order" }

let parse text =
  match Ir.Parse.program text with
  | Ok p -> p
  | Error e -> failwith (Format.asprintf "parse: %a" Ir.Parse.pp_error e)

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* One program through the whole static + dynamic pipeline, by the same
   calls whether traced or not; only the traced run separates link and
   compile from the run (the run then hits the Link memo). *)
let one (pr : prog) =
  let p = Tracer.span "ir.parse" (fun () -> parse pr.text) in
  let plan =
    Tracer.span "analysis.analyze" (fun () -> ok_exn "analyze" (Plan.analyze p pr.mode))
  in
  let h = Tracer.span "transform.apply" (fun () -> Harden.apply plan) in
  let report = Tracer.span "transform.report" (fun () -> Report.of_harden h) in
  let hardened = { Conair.original = p; hardened = h; plan; report } in
  if !Tracer.enabled then
    Tracer.span "runtime.link_compile" (fun () ->
        let meta = Machine.meta_of_harden h in
        let lp = Link.link ~fail_index:meta.Machine.fail_index h.Harden.program in
        if Apps.default_engine () = Engine.Block then ignore (Compile.compile lp));
  let r = Tracer.span "runtime.run" (fun () -> Conair.execute_hardened hardened) in
  (p, plan, h, r)

let check_run (pr : prog) (r : Conair.run) =
  check
    (pr.label ^ ": hardened run succeeds and is accepted")
    (Outcome.is_success r.Conair.outcome && pr.accept r.Conair.outputs)

(* Emit . Parse must reproduce the text byte for byte. *)
let check_round_trip (pr : prog) p =
  check (pr.label ^ ": emit . parse round trip") (Ir.Emit.program p = pr.text)

(* One pass over every program in a fresh seeded order, each program's
   latency (ms) filed under its label. *)
let pass ?(round_trip = false) ctx lat =
  Array.iter
    (fun pr ->
      fresh_scale ();
      let (p, _, _, r), dt = time (fun () -> one pr) in
      add lat pr.label (ref_ms dt);
      check_run pr r;
      if round_trip then check_round_trip pr p)
    (shuffle ctx.order ctx.progs)

(* Latency percentiles are over the programs, each at its median over
   the passes; throughput is programs per second at those times. *)
let measure ctx ~seconds =
  let t0 = now () and lat = samples () in
  pass ~round_trip:true ctx lat;
  mark_rss ();
  while now () -. t0 < seconds do
    resetup ();
    pass ctx lat
  done;
  let ms = unit_medians lat in
  info "pipeline: %d programs, %d timed" (List.length ms) (count_samples lat);
  [
    metric "throughput_per_s" "1/s" (units_per_s lat);
    metric "latency_p50_ms" "ms" (quantile 0.5 ms);
    metric "latency_p90_ms" "ms" (quantile 0.9 ms);
  ]

(* The traced pass: per-layer times from the spans, and the static
   counts of what the layers produced. *)
let traced ctx =
  let instrs = ref 0 and sites = ref 0 and points = ref 0 and growth = ref [] in
  Array.iter
    (fun pr ->
      let p, plan, h, r = Tracer.span "pipeline.program" (fun () -> one pr) in
      check_run pr r;
      let before = Ir.Program.instr_count p in
      instrs := !instrs + before;
      sites := !sites + List.length plan.Plan.site_plans;
      points := !points + Plan.static_points plan;
      growth :=
        (float_of_int (Ir.Program.instr_count h.Harden.program) /. float_of_int before)
        :: !growth)
    ctx.progs;
  let med name = median (Tracer.self_ms name) in
  [
    metric "ir.parse_ms" "ms" (med "ir.parse");
    metric "ir.instrs" "count" (float_of_int !instrs);
    metric "analysis.analyze_ms" "ms" (med "analysis.analyze");
    metric "analysis.sites" "count" (float_of_int !sites);
    metric "analysis.reexec_points" "count" (float_of_int !points);
    metric "transform.apply_ms" "ms" (med "transform.apply");
    metric "transform.instr_growth" "x" (median !growth);
    metric "runtime.link_compile_ms" "ms" (med "runtime.link_compile");
    metric "runtime.run_ms" "ms" (med "runtime.run");
  ]
