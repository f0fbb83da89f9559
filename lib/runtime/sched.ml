(* Scheduling policy: which eligible thread runs the next instruction.

   Determinism matters more than realism here — the paper forces buggy
   interleavings with injected sleeps, and so do the benchmarks; given the
   same policy and seed, a run is exactly reproducible.

   The PRNG, precisely: [Random.State.make [| seed |]] from the OCaml
   standard library, which on this toolchain (OCaml >= 5.0) is the LXM
   generator (L64X128 variant). [Round_robin] never touches the rng (it
   is created with seed 0 but only the cursor is used); [Random seed]
   draws one [Random.State.int] per scheduling decision with more than
   one eligible thread, and the recovery runtime draws from the *same*
   state for deadlock backoff and timing perturbation — the random
   stream is part of the machine semantics, consumed identically by both
   engines (see [choose_idx]).

   Consequence: everything downstream of the schedule is deterministic in
   (program, config, policy, seed) — outcomes, traces, profiles, and the
   race detector's event stream and reports. Same seed, byte-identical
   race reports; a different seed is a genuinely different schedule, which
   is exactly what [conair_fuzz --detect] exploits to count the schedules
   on which a race is observed.

   The scheduler is also the record/replay seam ([Conair_replay]): an
   optional [tap] observes every decision (eligible set + chosen tid) and
   an optional [feed] overrides the policy's choice. Both default to
   [None] and cost one match per decision when absent, the same
   zero-cost-when-off discipline as the trace/profile/race probes. A fed
   decision still consumes the rng and moves the cursor exactly as the
   policy would have for the same choice, so a strict replay reproduces
   the original random stream — deadlock backoff and timing perturbation
   draws included.

   Next to each per-decision entry sits a *forced-run* entry, the
   scheduler's analogue of [Flight_ring.push_run]: the block engine
   retires a compiled window — a run of decisions in which exactly one
   thread was eligible — and accounts it to the hooks in bulk. The
   window's first decision still goes through [choose_idx] with the
   machine in that decision's state (it is the only decision of a run
   that can be a context switch); the rest are [forced_run]. A feed
   bounds the run up front ([forced_allow]), so a run never retires a
   decision the feed would have refused: the refusal surfaces at the
   next per-decision call, at the same ordinal as on the per-step
   engines. *)

type policy =
  | Round_robin  (** strict rotation among eligible threads; rng unused *)
  | Random of int  (** uniform choice, seeded LXM ([Random.State]) *)

(* A tap sees the ready set as an index view — [tid_of i] for [i] in
   [0, n), ascending — never as a list: the engines already hold it that
   way, and building a list per decision was about a third of the
   recorder's cost in multi-eligible phases. *)
type tap = chosen:int -> tid_of:(int -> int) -> int -> unit

type t = {
  policy : policy;
  mutable rng : Random.State.t;
  mutable cursor : int;
  mutable tap : tap option;
  mutable tap_run : (tid:int -> int -> unit) option;
  mutable feed : (eligible:int list -> int) option;
  mutable feed_run : feed_run option;
}

and feed_run = {
  fr_allow : tid:int -> int;
      (* forced decisions of [tid] the feed would make from here, none
         consumed *)
  fr_take : tid:int -> int -> unit;  (* consume that many (or fewer) *)
}

let create policy =
  let seed = match policy with Round_robin -> 0 | Random s -> s in
  {
    policy;
    rng = Random.State.make [| seed |];
    cursor = 0;
    tap = None;
    tap_run = None;
    feed = None;
    feed_run = None;
  }

(* Installing a per-decision entry replaces its run entry too: a stale
   run entry would account decisions to the previous hook. A run entry
   without a per-decision one is dropped. *)
let set_tap ?run t tap =
  t.tap <- tap;
  t.tap_run <- (match tap with None -> None | Some _ -> run)

let set_feed ?run t feed =
  t.feed <- feed;
  t.feed_run <- (match feed with None -> None | Some _ -> run)

type saved = { sv_rng : Random.State.t; sv_cursor : int }

let save t = { sv_rng = Random.State.copy t.rng; sv_cursor = t.cursor }

let restore t s =
  t.rng <- Random.State.copy s.sv_rng;
  t.cursor <- s.sv_cursor

(* What the policy itself would pick (never sees an empty list). *)
let decide t eligible =
  match eligible with
  | [ tid ] -> tid
  | _ -> (
      match t.policy with
      | Round_robin ->
          (* The first eligible tid strictly greater than the last scheduled
             one, wrapping around: a fair rotation even as threads come and
             go. *)
          let next =
            match List.find_opt (fun tid -> tid > t.cursor) eligible with
            | Some tid -> tid
            | None -> List.hd eligible
          in
          t.cursor <- next;
          next
      | Random _ ->
          List.nth eligible (Random.State.int t.rng (List.length eligible)))

(* Replicate the policy's side effects for a decision made by a feed:
   consume the same rng draw and move the cursor to the chosen thread, so
   replayed and directed runs keep the downstream random stream (deadlock
   backoff, perturbed timing) aligned with policy-driven runs. *)
let mirror t ~eligible chosen =
  match eligible with
  | [ _ ] -> ()
  | _ -> (
      match t.policy with
      | Round_robin -> t.cursor <- chosen
      | Random _ ->
          ignore (Random.State.int t.rng (List.length eligible)))

let rec eligible_mem ~tid_of n tid =
  n > 0 && (tid_of (n - 1) = tid || eligible_mem ~tid_of (n - 1) tid)

let notify t ~chosen ~eligible =
  match t.tap with
  | None -> ()
  | Some f ->
      let a = Array.of_list eligible in
      f ~chosen ~tid_of:(Array.unsafe_get a) (Array.length a)

let hooked t = match (t.tap, t.feed) with None, None -> false | _ -> true

(** Pick one of [eligible] (a non-empty list of thread ids). *)
let choose t eligible =
  match eligible with
  | [] -> invalid_arg "Sched.choose: no eligible thread"
  | [ tid ] when not (hooked t) -> tid
  | _ ->
      let chosen =
        match t.feed with
        | None -> decide t eligible
        | Some f ->
            let chosen = f ~eligible in
            mirror t ~eligible chosen;
            chosen
      in
      notify t ~chosen ~eligible;
      chosen

(** Index-based choice for the pre-resolved engine: pick an index into an
    eligible array of length [n] ([tid_of i] gives the thread id at slot
    [i], ascending). Consumes the rng and moves the cursor exactly as
    [choose] does on the equivalent list, so the two engines draw the
    same random stream. The policy picks by index; the eligible list is
    materialized only for a feed; a tap gets the index view itself. Both
    see exactly what the list-based engine's hooks see. *)
let choose_idx t ~tid_of n =
  if n <= 0 then invalid_arg "Sched.choose_idx: no eligible thread"
  else
    match t.feed with
    | None ->
        let k =
          if n = 1 then 0
          else
            match t.policy with
            | Round_robin ->
                let rec find i =
                  if i >= n then 0
                  else if tid_of i > t.cursor then i
                  else find (i + 1)
                in
                let i = find 0 in
                t.cursor <- tid_of i;
                i
            | Random _ -> Random.State.int t.rng n
        in
        (match t.tap with None -> () | Some f -> f ~chosen:(tid_of k) ~tid_of n);
        k
    | Some f ->
        let eligible = List.init n tid_of in
        let chosen = f ~eligible in
        mirror t ~eligible chosen;
        (match t.tap with None -> () | Some f -> f ~chosen ~tid_of n);
        let rec index i =
          if i >= n then
            invalid_arg "Sched.choose_idx: fed an ineligible thread"
          else if tid_of i = chosen then i
          else index (i + 1)
        in
        index 0

(* --- forced runs --------------------------------------------------- *)

(* How many forced decisions of [tid] may follow the one just made
   through [choose_idx]. A feed without a run entry admits none: it must
   see every decision with the machine in that decision's state. *)
let forced_allow t ~tid =
  match t.feed with
  | None -> max_int
  | Some _ -> (
      match t.feed_run with None -> 0 | Some r -> r.fr_allow ~tid)

(* Account [n] forced decisions of [tid] (each with eligible = [[tid]])
   that the engine retired without consulting the hooks. Without a run
   entry the tap is told one decision at a time, after the fact: it sees
   the same stream, but not the machine state of each decision — which
   no switch-locating tap needs, since none of these is a switch. *)
let forced_run t ~tid n =
  if n > 0 then begin
    (match t.feed_run with None -> () | Some r -> r.fr_take ~tid n);
    match t.tap_run with
    | Some f -> f ~tid n
    | None -> (
        match t.tap with
        | None -> ()
        | Some f ->
            let tid_of _ = tid in
            for _ = 1 to n do
              f ~chosen:tid ~tid_of 1
            done)
  end

(** The runtime's randomness source (deadlock-recovery backoff). *)
let rng t = t.rng
