(* Shared helpers: clocks, order statistics, memory, seeded decks,
   output checks and the metric list every workload fills in. *)

module Json = Conair.Obs.Json

let now = Unix.gettimeofday

(* CPU seconds of the whole process (all threads, user + system). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation quantile (numpy's default) of unsorted data. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* Host speed. The benchmark's host runs at a speed that drifts by up to
   1.8x over seconds to minutes (other tenants contend for its cores;
   CPU time stretches with wall time, so it is not steal), which no
   amount of repetition inside one run can average out. So every
   timing is taken next to a calibration kernel — stdlib-only OCaml
   (hashing, sorting, list building), independent of the repository's
   code — and reported at reference speed: raw time x reference kernel
   time / measured kernel time. The kernel's own time tracks the host,
   and the ratio of a workload's time to it stays within ~2% across a
   host speed range where raw times move by 25%. *)

(* The kernel's time on an idle host of the reference machine (a 2-vCPU
   2.1 GHz Xeon VM). Only ratios between runs on one machine matter; on
   another machine every figure is off by the same factor. *)
let reference_kernel_ms = 10.

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 land 4095) (string_of_int i)
  done;
  let a = Array.init 30_000 (fun i -> i * 7919 mod 10_007) in
  Array.sort compare a;
  let l = List.init 20_000 (fun i -> i * 3) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.rev_map succ l)))

let scale = ref 1.
let calibrated_at = ref neg_infinity
let kernel_samples : float list ref = ref []

let calibrate () =
  let (), a = time kernel in
  let (), b = time kernel in
  let k = Float.min a b *. 1000. in
  kernel_samples := k :: !kernel_samples;
  scale := reference_kernel_ms /. k;
  calibrated_at := now ()

(* Call before timing a unit of work: recalibrates when the last kernel
   run is more than a quarter second old. *)
let fresh_scale () = if now () -. !calibrated_at > 0.25 then calibrate ()

(* A duration in seconds, at reference speed, in ms. *)
let ref_ms dt = dt *. !scale *. 1000.

(* Timings of repeated units of work (a program, a seed, a recorded run,
   a job of a block), kept per unit at reference speed; end-to-end
   figures use each unit's median over its repetitions. *)
type samples = (string, float list) Hashtbl.t

let samples () : samples = Hashtbl.create 64

let add (t : samples) unit_ x =
  Hashtbl.replace t unit_ (x :: Option.value ~default:[] (Hashtbl.find_opt t unit_))

let unit_medians (t : samples) = Hashtbl.fold (fun _ xs acc -> median xs :: acc) t []

(* Units per second, from each unit's median time in ms. *)
let units_per_s t =
  let ms = unit_medians t in
  float_of_int (List.length ms) /. (sum ms /. 1000.)

let count_samples (t : samples) = Hashtbl.fold (fun _ xs n -> n + List.length xs) t 0

(* Peak resident set (VmHWM) of a process, in MB; [None] when the
   process is gone or the kernel does not report it. *)
let peak_rss_mb ?(pid = "self") () =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)

(* Peak RSS is read once, when a workload's first unit of repeated work
   (a pass, a pair of blocks) is done: later passes re-run the same work,
   so how many fit into the run must not move the figure. [extra] adds a
   child process's own peak. *)
let rss_mark : float option ref = ref None

let mark_rss ?(extra = 0.) () =
  if !rss_mark = None then
    rss_mark := Some (Option.value ~default:nan (peak_rss_mb ()) +. extra)

(* Set-up time is sampled across the whole run: the workload calls
   [resetup] between its units of repeated work, and at most once a
   second the run's set-up is done again, timed (at reference speed)
   and discarded. *)
let setup_times : float list ref = ref []
let setup_again : (unit -> unit) ref = ref ignore
let last_setup = ref 0.

let resetup () =
  if now () -. !last_setup >= 1. then begin
    fresh_scale ();
    let (), dt = time !setup_again in
    setup_times := (ref_ms dt /. 1000.) :: !setup_times;
    last_setup := now ()
  end

(* A seeded stream of independent PRNGs, one per named purpose, so that
   adding draws for one purpose never shifts another's inputs. *)
let rng ~seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Stratified uniform draws: each element once per round, in a fresh
   seeded order every round. Keeps the mix of a short run equal to the
   mix of a long one, which keeps run-to-run spread low. *)
type 'a deck = { items : 'a array; rng : Random.State.t; mutable hand : 'a list }

let deck rng items = { items; rng; hand = [] }

let rec draw d =
  match d.hand with
  | x :: rest ->
      d.hand <- rest;
      x
  | [] ->
      d.hand <- Array.to_list (shuffle d.rng d.items);
      draw d

(* Output checks. Every check counts as attempted; a failed one is
   reported on stderr and fails the run. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks = { attempted = 0; failed = 0 }

let check name ok =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    prerr_endline ("perfbench: check failed: " ^ name)
  end

(* A metric as reported: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_line ms =
  List.iter
    (fun m -> check (m.name ^ " is a finite number") (Float.is_finite m.value))
    ms;
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (checks.failed = 0));
         ("attempted", Json.Int checks.attempted);
         ("failed", Json.Int checks.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                  ))
                ms) );
       ])

let info fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
