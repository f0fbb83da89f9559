(** Schedule-coverage observability: canonical interleaving signatures,
    a race-probe-backed collector of schedulable program points, and a
    per-app coverage map with novelty scoring.

    The paper's evaluation (§5) turns on how {e narrow} the buggy
    interleaving window is — how many schedules hit the bug. This module
    gives that window a first-class representation:

    - an {b interleaving signature} ({!signature}): a digest of a run's
      preemption-point sequence (from the schedule recorder) plus its
      per-address access-order tallies (from the race probe). Two runs
      with the same signature exercised the same interleaving shape, so
      campaign findings dedupe by it. Both inputs are byte-identical
      across the ref/fast/block engines, making signatures
      engine-independent and stable across coordinator restarts;

    - a {b collector} ({!collector}, {!probe}): a
      {!Conair_runtime.Race_probe.probe} that watches a run and distils
      it to an {!observed} summary — which schedulable program points
      (block × access kind, lock operations) and which cross-thread
      happens-before edge shapes were exercised, plus the per-address
      access orders the signature hashes;

    - a {b coverage map} ({!t}): per-app sets of exercised points and
      edges plus the set of known signatures, with {!novelty} scoring so
      a fuzzer can prefer seeds whose decision streams diverge from the
      corpus. Maps serialize to JSON and {!merge_json} folds worker dumps
      into the coordinator's map.

    Everything here is plain data in, plain data out: no file I/O, no
    dependency above [Conair_runtime]. See [docs/OBSERVABILITY.md]. *)

open Conair_runtime

val addr_string : Race_probe.addr -> string
(** The stable textual form of an address ("global:x", "slot:TID:name",
    "cell:BLOCK:OFF", "block:ID") — the same vocabulary the race
    detector's reports use. *)

(** What the collector saw of one run, in canonical (sorted, deduped)
    form. *)
type observed = {
  ob_orders : (string * string) list;
      (** per-address access-order tally, ascending address; long orders
          are folded to an ["md5:..."] digest so entries stay bounded *)
  ob_points : string list;
      (** schedulable program points exercised: ["BLOCK/r"], ["BLOCK/w"],
          ["lock:NAME"], ["wait:NAME"] — sorted, deduped *)
  ob_edges : string list;
      (** cross-thread happens-before edge shapes: consecutive accesses
          to one address by different threads, as
          ["CLASS:KINDS:BLOCK->BLOCK"] — sorted, deduped *)
}

val observed_empty : observed

val observed_to_json : observed -> Json.t
val observed_of_json : Json.t -> (observed, string) result

type collector

val collector : unit -> collector

val probe : collector -> Race_probe.probe
(** Pass as the race hook ([Hooks.bundle ~race]) to build the
    {!observed} summary as the run executes. *)

val observed : collector -> observed
(** The canonical summary of everything seen so far. *)

val signature_stream :
  ?context:string ->
  ?orders:(string * string) list ->
  n:int ->
  decision:(int -> int) ->
  preemptions:((int -> unit) -> unit) ->
  unit ->
  string
(** The canonical interleaving signature, and its one implementation: an
    MD5 hex digest of the bytes

    {v conair-sig-v1|c:CONTEXT|n:N(|p:ORD:FROM>CHOSEN)*(|a:ADDR=ORDER)* v}

    for a run of [n] decisions, where [decision i] is the tid chosen at
    ordinal [i] (called only for [0 <= i < n]). [preemptions f] calls
    [f] on each preemption ordinal in turn; each gives one [|p:] entry
    with FROM and CHOSEN the tids at ordinals [ORD-1] and [ORD], [-1]
    where that ordinal is out of range. The [orders] (default none)
    follow, sorted, one [|a:] entry each. [context] (default [""]) is
    mixed in verbatim — pass the app/case name or program MD5 so
    identical interleaving shapes of different programs do not collide.
    Numbers are plain decimal. The digits are written straight into one
    buffer, hashed once; callers stream the preemptions off whatever
    representation they hold ([Conair_replay.Recorder.signature] reads
    its byte stream) instead of building arrays. *)

val signature :
  ?context:string ->
  ?orders:(string * string) list ->
  decisions:int array ->
  preemptions:int array ->
  unit ->
  string
(** {!signature_stream} over a decision array and the ordinals of its
    preemptive switches, e.g. a schedule log's. *)

(** {1 The coverage map} *)

type t

val create : unit -> t

val note : t -> app:string -> observed -> unit
(** Fold one run's points and edges into [app]'s coverage. *)

val note_signature : t -> string -> bool
(** Record a signature; [true] when it was not yet known — the
    coordinator's dedupe primitive. *)

val seen_signature : t -> string -> bool
val signatures : t -> int

val novelty : t -> app:string -> observed -> float
(** The fraction of [observed]'s points and edges not yet covered for
    [app], in [0, 1] ([1.] = everything new, [0.] = nothing new, and by
    convention [0.] for an empty observation). Campaign workers prefer
    seeds with high novelty. *)

val apps : t -> string list
(** Ascending. *)

val points : t -> app:string -> string list
val edges : t -> app:string -> string list

val to_json : t -> Json.t
(** [{"type":"coverage","signatures":N,"apps":{APP:{"points":[...],
    "edges":[...]}}}] with all lists sorted — byte-stable for a given
    coverage state. *)

val merge_json : t -> Json.t -> (unit, string) result
(** Union a {!to_json} dump (e.g. a worker's) into [t]. Signature counts
    are not merged — signatures travel individually via finding records
    and {!note_signature}. *)
