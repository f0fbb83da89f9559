(* The application catalog every workload draws from, and the engine
   the facade's entry points pick when given none. *)

module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

(* The paper's Table 2 set plus the extended bugs: 12 apps. *)
let all = Registry.all @ Registry.extended
let names = List.map (fun (s : Spec.t) -> s.Spec.info.Spec.name) all

let find name =
  match Registry.find name with
  | Some s -> s
  | None -> failwith ("unknown app " ^ name)

let instance ?(variant = Spec.Buggy) (spec : Spec.t) =
  spec.Spec.make ~variant ~oracle:spec.Spec.info.Spec.needs_oracle

(* Read off a run rather than assumed, so that a change of the facade's
   default shows up in every workload. *)
let default_engine =
  let e =
    lazy
      (let p =
         Conair.Ir.Builder.build ~main:"main" @@ fun b ->
         Conair.Ir.Builder.func b "main" ~params:[] @@ fun f ->
         Conair.Ir.Builder.label f "entry";
         Conair.Ir.Builder.exit_ f
       in
       Conair.Runtime.Engine.engine_of (Conair.execute p).Conair.machine)
  in
  fun () -> Lazy.force e
