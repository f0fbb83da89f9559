(** Per-run observation hooks, bundled.

    One run may carry up to six hooks: a trace sink, a cost-profiler
    probe, a race-detector probe, the scheduler's record tap / replay
    feed, and the always-on flight-recorder ring. The primary way to
    attach them is the {!bundle} passed to [Machine.create] /
    [Ref_machine.create] / [Block_machine.create] / [Engine.create]:
    the hooks belong to that machine from its first step, are private
    to it, and need no uninstall — which makes concurrent in-process
    runs safe (no shared mutable hook slots).

    On the block engine, the flight ring, the tap, the feed and the race
    probe all keep compiled windows running (bulk accounting through
    {!Flight_ring.push_run} and {!Sched.forced_run}; memory accesses as
    window stoppers under a race probe). Only the trace sink and the
    cost profiler force the generic step loop. *)

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
  hb_tap : Sched.tap option;
  hb_tap_run : (tid:int -> int -> unit) option;
      (** the tap's forced-run entry ({!Sched.forced_run}) *)
  hb_feed : (eligible:int list -> int) option;
  hb_feed_run : Sched.feed_run option;
      (** the feed's forced-run entry ({!Sched.forced_allow}) *)
}

val none : bundle
(** No hooks — what a machine gets when [?hooks] is omitted. *)

val bundle :
  ?trace:Trace.sink ->
  ?profile:Profile.probe ->
  ?race:Race_probe.probe ->
  ?flight:Flight_ring.t ->
  ?tap:Sched.tap ->
  ?tap_run:(tid:int -> int -> unit) ->
  ?feed:(eligible:int list -> int) ->
  ?feed_run:Sched.feed_run ->
  unit ->
  bundle
(** [tap_run] / [feed_run] only take effect next to [tap] / [feed]. *)

val is_none : bundle -> bool

val install : target -> bundle -> unit
(** Set exactly the hooks the bundle carries; [None] slots are left
    untouched. The escape hatch for self-referential hooks — a feed or
    tap that must capture the machine it observes is necessarily built
    after [create], and installs itself here. *)
