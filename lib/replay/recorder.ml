(* The recorder: a scheduler tap that captures the chosen-thread stream
   and classifies context switches as it goes.

   A decision is a *preemptive* switch when the chosen thread differs
   from the previously scheduled one while the previous one was still
   eligible — the scheduler took the CPU away. Switches forced by the
   previous thread blocking, sleeping or finishing are reproduced for
   free by any schedule-respecting executor, so only preemptive switches
   are interesting to the minimizer. *)

open Conair_runtime

(* The stream lives in one byte buffer, one entry per decision:
   [2 * tid + 1] for a preemptive decision, [2 * tid] otherwise. An
   entry takes one byte while it fits (tid below 128) and eight bytes
   for good once one does not. A recording of tens of thousands of
   decisions then costs a few kilobytes of buffer and no per-decision
   allocation: a growing int array, or a list of preemption ordinals,
   would churn the major heap on every recorded run. *)
type t = {
  mutable buf : Bytes.t;
  mutable wide : bool;  (** eight bytes per entry *)
  mutable n : int;  (** decisions recorded *)
  mutable prev : int;  (** previously chosen tid, [-1] before the first *)
  mutable npreempt : int;
}

let create () =
  { buf = Bytes.create 1024; wide = false; n = 0; prev = -1; npreempt = 0 }

let entry r i =
  if r.wide then Int64.to_int (Bytes.get_int64_le r.buf (8 * i))
  else Char.code (Bytes.unsafe_get r.buf i)

let reserve r bytes =
  if bytes > Bytes.length r.buf then begin
    let b = Bytes.create (max bytes (2 * Bytes.length r.buf)) in
    Bytes.blit r.buf 0 b 0 (if r.wide then 8 * r.n else r.n);
    r.buf <- b
  end

let widen r =
  let b = Bytes.create (8 * max 1024 (2 * r.n)) in
  for i = 0 to r.n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (Char.code (Bytes.get r.buf i)))
  done;
  r.buf <- b;
  r.wide <- true

(* append [count] copies of entry [e] *)
let append r e count =
  if (not r.wide) && e > 255 then widen r;
  if r.wide then begin
    reserve r (8 * (r.n + count));
    let v = Int64.of_int e in
    for i = r.n to r.n + count - 1 do
      Bytes.set_int64_le r.buf (8 * i) v
    done
  end
  else begin
    reserve r (r.n + count);
    Bytes.unsafe_fill r.buf r.n count (Char.unsafe_chr e)
  end;
  r.n <- r.n + count

let tap r ~chosen ~tid_of n =
  let preemptive =
    chosen <> r.prev && r.prev >= 0 && Sched.eligible_mem ~tid_of n r.prev
  in
  let e = (2 * chosen) + if preemptive then 1 else 0 in
  if preemptive then r.npreempt <- r.npreempt + 1;
  let k = r.n in
  if (not r.wide) && k < Bytes.length r.buf && e <= 255 then begin
    Bytes.unsafe_set r.buf k (Char.unsafe_chr e);
    r.n <- k + 1
  end
  else append r e 1;
  r.prev <- chosen

(* A forced run: [n] decisions of [tid] with [tid] the only eligible
   thread. None is a preemption — the previous thread was not
   eligible. *)
let tap_run r ~tid n =
  if n > 0 then begin
    append r (2 * tid) n;
    r.prev <- tid
  end

let hooks r = Hooks.bundle ~tap:(tap r) ~tap_run:(tap_run r) ()

let count r = r.n

let decisions r =
  let d = Array.make r.n 0 in
  if r.wide then
    for i = 0 to r.n - 1 do
      Array.unsafe_set d i (entry r i lsr 1)
    done
  else
    for i = 0 to r.n - 1 do
      Array.unsafe_set d i (Char.code (Bytes.unsafe_get r.buf i) lsr 1)
    done;
  d

(* [f] on the ordinal of every preemptive decision, ascending *)
let iter_preemptions r f =
  if r.wide then
    for i = 0 to r.n - 1 do
      if entry r i land 1 = 1 then f i
    done
  else
    for i = 0 to r.n - 1 do
      if Char.code (Bytes.unsafe_get r.buf i) land 1 = 1 then f i
    done

let preemptions r =
  let p = Array.make r.npreempt 0 in
  let j = ref 0 in
  iter_preemptions r (fun i ->
      p.(!j) <- i;
      incr j);
  p

(* No decision or preemption array: the signature streams the entries
   straight off the buffer. *)
let signature ?context ?orders r =
  Conair_obs.Coverage.signature_stream ?context ?orders ~n:r.n
    ~decision:(fun i -> entry r i lsr 1)
    ~preemptions:(iter_preemptions r) ()
