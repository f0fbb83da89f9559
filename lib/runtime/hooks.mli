(** Per-run observation hooks, bundled.

    One run may carry up to six hooks: a trace sink, a cost-profiler
    probe, a race-detector probe, the scheduler's record tap / replay
    feed, and the always-on flight-recorder ring. The primary way to
    attach them is the {!bundle} passed to [Machine.create] /
    [Ref_machine.create] / [Block_machine.create] / [Engine.create]:
    the hooks belong to that machine from its first step, are private
    to it, and need no uninstall — which makes concurrent in-process
    runs safe (no shared mutable hook slots).

    The flight slot is the one hook that does {e not} force the block
    engine onto the generic step loop — see {!Flight_ring}. *)

(** The six hook slots of one engine instance, bundled as setters.
    Obtain one from [Machine.hooks], [Ref_machine.hooks],
    [Block_machine.hooks] or generically from [Engine.hooks]. *)
type target = {
  ht_trace : Trace.sink option -> unit;
  ht_profile : Profile.probe option -> unit;
  ht_race : Race_probe.probe option -> unit;
  ht_flight : Flight_ring.t option -> unit;
  ht_sched : Sched.t;  (** carries the tap and feed slots *)
}

(** An immutable selection of hooks for one run, passed to the engines'
    [create]. *)
type bundle = {
  hb_trace : Trace.sink option;
  hb_profile : Profile.probe option;
  hb_race : Race_probe.probe option;
  hb_flight : Flight_ring.t option;
  hb_tap : (chosen:int -> eligible:int list -> unit) option;
  hb_feed : (eligible:int list -> int) option;
}

val none : bundle
(** No hooks — what a machine gets when [?hooks] is omitted. *)

val bundle :
  ?trace:Trace.sink ->
  ?profile:Profile.probe ->
  ?race:Race_probe.probe ->
  ?flight:Flight_ring.t ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:(eligible:int list -> int) ->
  unit ->
  bundle

val is_none : bundle -> bool

val install : target -> bundle -> unit
(** Set exactly the hooks the bundle carries; [None] slots are left
    untouched. The escape hatch for self-referential hooks — a feed or
    tap that must capture the machine it observes is necessarily built
    after [create], and installs itself here. *)
