(* Scheduler feeds: the replay half of the record/replay seam.

   [strict] forces the exact recorded decision stream and raises
   [Diverged] the moment the replayed execution disagrees with the
   recording — the recorded thread is not eligible, or the execution
   asks for more decisions than were recorded. [Sched] mirrors the
   policy's rng/cursor side effects for every fed decision, so a strict
   replay of a log against the same program and config reproduces the
   original run bit for bit, downstream random draws included.

   [directed] executes a *sparse* schedule: an ordered list of context
   switch directives ("once thread FROM has run COUNT decisions, switch
   to TO"), continuing the current thread between directives and falling
   back to round-robin order (first eligible tid after the current one,
   wrapping) when the current thread cannot run. Feeding every switch of
   a recorded run reproduces it exactly; feeding a subset is how the
   minimizer probes which preemptions a failure actually needs. *)

open Conair_runtime

type divergence_info = { at : int; expected : int option; eligible : int list }

exception Diverged of divergence_info

type strict = { decisions : int array; mutable pos : int }

let strict ?(start = 0) decisions = { decisions; pos = start }

let strict_decide h ~eligible =
  let k = h.pos in
  if k >= Array.length h.decisions then
    raise (Diverged { at = k; expected = None; eligible });
  let tid = h.decisions.(k) in
  if not (List.mem tid eligible) then
    raise (Diverged { at = k; expected = Some tid; eligible });
  h.pos <- k + 1;
  tid

(* The forced-run entry: the log admits as many forced decisions of
   [tid] as it has consecutive [tid] entries from [pos]. [lo, hi) caches
   the last run of equal entries measured, so a long run cut into many
   windows is scanned once. *)
let strict_run h =
  let lo = ref 0 and hi = ref 0 in
  let allow ~tid =
    let d = h.decisions in
    let k = h.pos in
    if k >= Array.length d || d.(k) <> tid then 0
    else begin
      if not (!lo <= k && k < !hi) then begin
        let e = ref (k + 1) in
        while !e < Array.length d && d.(!e) = tid do
          incr e
        done;
        lo := k;
        hi := !e
      end;
      !hi - k
    end
  in
  { Sched.fr_allow = allow; fr_take = (fun ~tid:_ n -> h.pos <- h.pos + n) }

let strict_hooks h =
  Hooks.bundle ~feed:(strict_decide h) ~feed_run:(strict_run h) ()

let attach_strict ?start sched decisions =
  let h = strict ?start decisions in
  Sched.set_feed ~run:(strict_run h) sched
    (Some (fun ~eligible -> strict_decide h ~eligible));
  h

(* ------------------------------------------------------------------ *)

type directive = { dr_from : int; dr_count : int; dr_to : int }

type directed = {
  mutable queue : directive list;
  mutable cur : int;
  mutable counts : int array;  (** tid -> decisions it has run *)
  mutable fired : int;
}

let local d tid = if tid < Array.length d.counts then d.counts.(tid) else 0

let bump d tid n =
  if tid >= Array.length d.counts then begin
    let c = Array.make (max (tid + 1) (2 * Array.length d.counts)) 0 in
    Array.blit d.counts 0 c 0 (Array.length d.counts);
    d.counts <- c
  end;
  d.counts.(tid) <- d.counts.(tid) + n

let directed_decide d ~eligible =
  let local = local d in
  let tid =
    match d.queue with
    | dr :: rest
      when dr.dr_from = d.cur
           && local dr.dr_from >= dr.dr_count
           && List.mem dr.dr_to eligible ->
        d.queue <- rest;
        d.fired <- d.fired + 1;
        dr.dr_to
    | _ ->
        if d.cur >= 0 && List.mem d.cur eligible then d.cur
        else (
          (* round-robin order: first eligible tid after the current one,
             wrapping — exactly the forced-switch choice the recording
             policy would make *)
          match List.find_opt (fun t -> t > d.cur) eligible with
          | Some t -> t
          | None -> List.hd eligible)
  in
  d.cur <- tid;
  bump d tid 1;
  tid

let directed directives =
  { queue = directives; cur = -1; counts = Array.make 8 0; fired = 0 }

(* The forced-run entry. After a forced run's first decision [cur] is
   [tid], and only [tid] is eligible, so the head directive can fire
   during the run only if it switches [tid] to itself — once [tid] has
   run [dr_count] decisions. Until then every decision is [tid]'s, and
   the run costs one count update. *)
let directed_allow d ~tid =
  match d.queue with
  | dr :: _ when dr.dr_from = tid && dr.dr_to = tid ->
      max 0 (dr.dr_count - local d tid)
  | _ -> max_int

let directed_run d =
  {
    Sched.fr_allow = (fun ~tid -> directed_allow d ~tid);
    fr_take = (fun ~tid n -> bump d tid n);
  }

let directed_hooks d =
  Hooks.bundle
    ~feed:(fun ~eligible -> directed_decide d ~eligible)
    ~feed_run:(directed_run d) ()

(* Recast a recorded decision stream as context-switch directives: every
   change of chosen thread is a switch; the preemption ordinals recorded
   next to the stream tell which were preemptive (the outgoing thread was
   still eligible). [dr_count] is how many decisions the outgoing thread
   had run when the switch fired. Feeding [merge_directives fixed cand]
   back through [directed] reproduces the recording exactly. *)
let directives_of ~decisions ~preemptions =
  let preemptive = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace preemptive k ()) preemptions;
  let counts = directed [] in
  let fixed = ref [] and cand = ref [] in
  Array.iteri
    (fun k tid ->
      (if k > 0 then
         let prev = decisions.(k - 1) in
         if tid <> prev then begin
           let dr =
             (k, { dr_from = prev; dr_count = local counts prev; dr_to = tid })
           in
           if Hashtbl.mem preemptive k then cand := dr :: !cand
           else fixed := dr :: !fixed
         end);
      bump counts tid 1)
    decisions;
  (List.rev !fixed, List.rev !cand)

(* Merge the forced directives with a (sub)set of preemptive ones, by
   original decision ordinal. *)
let merge_directives fixed subset =
  List.merge (fun (a, _) (b, _) -> compare a b) fixed subset |> List.map snd

let attach_directed sched directives =
  let d = directed directives in
  Sched.set_feed ~run:(directed_run d) sched
    (Some (fun ~eligible -> directed_decide d ~eligible));
  d

let detach sched = Sched.set_feed sched None
