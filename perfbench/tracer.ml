(* The benchmark's own span recorder. Spans wrap the benchmark's calls
   into each layer's public functions: name, start, end, and the span
   that caused it. They are kept in memory and written once, at exit,
   as a Chrome trace-event document (the format [Obs.Span.to_chrome]
   emits). Off unless the run is a traced one; when off, [span] is a
   plain call. *)

module Json = Conair.Obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  tid : int;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

(* the innermost open span per systhread *)
let open_stack : (int, int list) Hashtbl.t = Hashtbl.create 4

let self_tid () = Thread.id (Thread.self ())

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let span name f =
  if not !enabled then f ()
  else begin
    let tid = self_tid () in
    let sp =
      with_lock (fun () ->
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_stack tid) in
          let parent = match stack with p :: _ -> p | [] -> 0 in
          let sp =
            { id = !next_id; name; parent; tid; start = Util.now (); stop = nan }
          in
          Hashtbl.replace open_stack tid (sp.id :: stack);
          spans := sp :: !spans;
          sp)
    in
    Fun.protect f ~finally:(fun () ->
        sp.stop <- Util.now ();
        with_lock (fun () ->
            match Hashtbl.find_opt open_stack tid with
            | Some (_ :: rest) -> Hashtbl.replace open_stack tid rest
            | _ -> ()))
  end

(* A span whose interval was measured elsewhere (e.g. a served job,
   timed from its due time to its result frame); its parent defaults to
   the calling thread's innermost open span. Returns the span's id. *)
let record ?parent name ~start ~stop =
  if not !enabled then 0
  else
    with_lock (fun () ->
        incr next_id;
        let tid = self_tid () in
        let parent =
          match (parent, Hashtbl.find_opt open_stack tid) with
          | Some p, _ -> p
          | None, Some (p :: _) -> p
          | None, _ -> 0
        in
        spans := { id = !next_id; name; parent; tid; start; stop } :: !spans;
        !next_id)

let reset () =
  with_lock (fun () ->
      spans := [];
      Hashtbl.reset open_stack)

let closed () = List.filter (fun s -> Float.is_finite s.stop) !spans

(* Self time of every span: its duration minus the part of it that its
   child spans cover. *)
let self_times () =
  let all = closed () in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) all;
  List.map
    (fun s ->
      let cs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) cs
      in
      (s, s.stop -. s.start -. covered))
    all

let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.stop -. s.start) *. 1000.) else None)
    (closed ())

let self_ms name =
  List.filter_map
    (fun (s, self) -> if s.name = name then Some (self *. 1000.) else None)
    (self_times ())

let count name = List.length (durations_ms name)

(* Self time summed per span name, largest first — the layer table a
   traced run prints. *)
let self_table () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, t +. self))
    (self_times ());
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let to_chrome () =
  let all = List.rev (closed ()) in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let us x = int_of_float ((x -. t0) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "perfbench");
        ("ph", Json.String "X");
        ("pid", Json.Int 0);
        ("tid", Json.Int s.tid);
        ("ts", Json.Int (us s.start));
        ("dur", Json.Int (us s.stop - us s.start));
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event all));
      ("displayTimeUnit", Json.String "ms");
    ]
