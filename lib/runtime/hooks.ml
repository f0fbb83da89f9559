(* Per-run observation hooks, bundled.

   Every engine carries the same six hook slots: a trace sink, a
   cost-profiler probe, a race-detector probe, the scheduler's
   record tap / replay feed, and the always-on flight-recorder ring.
   Historically callers installed them by hand after [create]
   ([set_trace] / [set_profile] / [Recorder.attach] /
   ...) and were responsible for uninstalling them afterwards — which
   nobody did on the exception paths, and which made two in-process runs
   race for the same mutable slots when they shared helper code.

   The primary API is now the [bundle]: an immutable record of the six
   optional hooks that a caller hands to [Machine.create] /
   [Ref_machine.create] / [Block_machine.create] / [Engine.create]. The
   hooks are part of the machine from its first step, they are private
   to that machine, and there is nothing to uninstall — a machine is
   never shared between runs, so concurrent in-process jobs cannot fight
   over hook state.

   Which hooks keep the block engine on its compiled windows:

   - the flight ring: windows account their decisions in bulk
     ([Flight_ring.push_run]);
   - the tap and the feed: a window's first decision goes through the
     per-decision entry, the rest through the forced-run entry
     ([tap_run] / [feed_run], see [Sched.forced_run]). A tap without a
     run entry is told the rest one decision at a time after the
     window; a feed without one confines every window to one decision;
   - the race probe: memory accesses become window stoppers, run
     through [Machine.run_thread_step] so they emit exactly what they
     emit on the per-step engines; the rest of the window stays
     compiled ([Compile.compile ~probe]).

   The trace sink and the cost profiler (and [profile_sites]) observe
   every step, so they still send every step down [Machine.step].

   [install] remains for the rare self-referential hook that needs the
   machine in scope before it can be built. *)

type target = {
  ht_trace : Trace.sink option -> unit;
  ht_profile : Profile.probe option -> unit;
  ht_race : Race_probe.probe option -> unit;
  ht_flight : Flight_ring.t option -> unit;
  ht_sched : Sched.t;
}

type bundle = {
  hb_trace : Trace.sink option;
  hb_profile : Profile.probe option;
  hb_race : Race_probe.probe option;
  hb_flight : Flight_ring.t option;
  hb_tap : Sched.tap option;
  hb_tap_run : (tid:int -> int -> unit) option;
  hb_feed : (eligible:int list -> int) option;
  hb_feed_run : Sched.feed_run option;
}

let none =
  {
    hb_trace = None;
    hb_profile = None;
    hb_race = None;
    hb_flight = None;
    hb_tap = None;
    hb_tap_run = None;
    hb_feed = None;
    hb_feed_run = None;
  }

let bundle ?trace ?profile ?race ?flight ?tap ?tap_run ?feed ?feed_run () =
  { hb_trace = trace; hb_profile = profile; hb_race = race;
    hb_flight = flight; hb_tap = tap; hb_tap_run = tap_run; hb_feed = feed;
    hb_feed_run = feed_run }

let is_none b =
  b.hb_trace = None && b.hb_profile = None && b.hb_race = None
  && b.hb_flight = None && b.hb_tap = None && b.hb_feed = None

(* Only overwrite slots the bundle actually carries: [install] is also
   the escape hatch for self-referential hooks (a feed that snapshots
   the machine it steers), which are built after [create] and must not
   clobber hooks the bundle installed at create time. *)
let install t b =
  (match b.hb_trace with None -> () | Some _ -> t.ht_trace b.hb_trace);
  (match b.hb_profile with None -> () | Some _ -> t.ht_profile b.hb_profile);
  (match b.hb_race with None -> () | Some _ -> t.ht_race b.hb_race);
  (match b.hb_flight with None -> () | Some _ -> t.ht_flight b.hb_flight);
  (match b.hb_tap with
  | None -> ()
  | Some _ -> Sched.set_tap ?run:b.hb_tap_run t.ht_sched b.hb_tap);
  match b.hb_feed with
  | None -> ()
  | Some _ -> Sched.set_feed ?run:b.hb_feed_run t.ht_sched b.hb_feed
