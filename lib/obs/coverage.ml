(* Schedule-coverage observability: interleaving signatures, the
   race-probe collector, and the per-app coverage map.

   Determinism is the load-bearing property. The signature inputs — the
   recorder's decision stream and the race probe's event
   stream — are byte-identical across the ref/fast/block engines (the
   differential guarantee of test_fast_exec), so everything derived here
   is too: the same recorded run yields the same signature no matter
   which engine executed it, which worker observed it, or how many times
   the coordinator restarted. All sets are rendered sorted. *)

open Conair_runtime
module SS = Set.Make (String)

let addr_string : Race_probe.addr -> string = function
  | A_global g -> "global:" ^ g
  | A_slot (tid, s) -> Printf.sprintf "slot:%d:%s" tid s
  | A_cell (b, i) -> Printf.sprintf "cell:%d:%d" b i
  | A_block b -> Printf.sprintf "block:%d" b

let addr_class : Race_probe.addr -> string = function
  | A_global _ -> "global"
  | A_slot _ -> "slot"
  | A_cell _ -> "cell"
  | A_block _ -> "block"

let kind_char : Race_probe.kind -> char = function Read -> 'r' | Write -> 'w'

type observed = {
  ob_orders : (string * string) list;
  ob_points : string list;
  ob_edges : string list;
}

let observed_empty = { ob_orders = []; ob_points = []; ob_edges = [] }

let observed_to_json (o : observed) : Json.t =
  Json.Obj
    [
      ("type", Json.String "observed");
      ( "orders",
        Json.Obj (List.map (fun (a, t) -> (a, Json.String t)) o.ob_orders) );
      ("points", Json.List (List.map (fun p -> Json.String p) o.ob_points));
      ("edges", Json.List (List.map (fun e -> Json.String e) o.ob_edges));
    ]

let string_list_of_json name j =
  match j with
  | Json.List l ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (name ^ " holds a non-string element")
      in
      go [] l
  | _ -> Error (name ^ " is not a list")

let observed_of_json (j : Json.t) : (observed, string) result =
  let ( let* ) = Result.bind in
  let* orders =
    match Json.member "orders" j with
    | Some (Json.Obj kvs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (a, Json.String t) :: rest -> go ((a, t) :: acc) rest
          | _ -> Error "orders holds a non-string member"
        in
        go [] kvs
    | Some _ -> Error "orders is not an object"
    | None -> Ok []
  in
  let member_list name =
    match Json.member name j with
    | Some l -> string_list_of_json name l
    | None -> Ok []
  in
  let* points = member_list "points" in
  let* edges = member_list "edges" in
  Ok { ob_orders = orders; ob_points = points; ob_edges = edges }

(* --- the collector ------------------------------------------------- *)

(* Per address we keep the access-order tally (a buffer of
   "t<tid><r|w>@<block>;" entries) and the last access for edge
   derivation. Tallies longer than [order_cap] bytes are folded into a
   rolling MD5 so pathological runs stay bounded while the rendering
   stays deterministic. *)

let order_cap = 2048

type per_addr = {
  mutable pa_folded : string option;  (* rolling digest of overflowed text *)
  pa_buf : Buffer.t;
  mutable pa_last : (int * string * Race_probe.kind) option;
      (* (tid, block, kind) of the previous access *)
}

type collector = {
  addrs : (string, per_addr) Hashtbl.t;
  cl_classes : (string, string) Hashtbl.t;  (* addr -> class, for edges *)
  mutable cl_points : SS.t;
  mutable cl_edges : SS.t;
}

let collector () =
  {
    addrs = Hashtbl.create 64;
    cl_classes = Hashtbl.create 64;
    cl_points = SS.empty;
    cl_edges = SS.empty;
  }

let per_addr c addr cls =
  match Hashtbl.find_opt c.addrs addr with
  | Some pa -> pa
  | None ->
      let pa = { pa_folded = None; pa_buf = Buffer.create 32; pa_last = None } in
      Hashtbl.replace c.addrs addr pa;
      Hashtbl.replace c.cl_classes addr cls;
      pa

let fold_if_full pa =
  if Buffer.length pa.pa_buf > order_cap then begin
    let text =
      Option.value ~default:"" pa.pa_folded ^ Buffer.contents pa.pa_buf
    in
    pa.pa_folded <- Some (Digest.to_hex (Digest.string text));
    Buffer.clear pa.pa_buf
  end

let on_access c ~tid ~block ~(kind : Race_probe.kind) ~addr =
  let a = addr_string addr in
  let cls = addr_class addr in
  let pa = per_addr c a cls in
  Buffer.add_string pa.pa_buf
    (Printf.sprintf "t%d%c@%s;" tid (kind_char kind) block);
  fold_if_full pa;
  c.cl_points <-
    SS.add (Printf.sprintf "%s/%c" block (kind_char kind)) c.cl_points;
  (match pa.pa_last with
  | Some (ptid, pblock, pkind) when ptid <> tid ->
      (* a cross-thread consecutive-access pair: the happens-before edge
         shape this schedule exercised on this address *)
      c.cl_edges <-
        SS.add
          (Printf.sprintf "%s:%c%c:%s->%s" cls (kind_char pkind)
             (kind_char kind) pblock block)
          c.cl_edges
  | _ -> ());
  pa.pa_last <- Some (tid, block, kind)

let probe (c : collector) : Race_probe.probe =
  {
    rp_access =
      (fun ~step:_ ~tid ~iid:_ ~stack:_ ~block ~kind ~addr ~locks:_ ->
        on_access c ~tid ~block ~kind ~addr);
    rp_acquire =
      (fun ~step:_ ~tid:_ ~iid:_ ~lock ~locks:_ ->
        c.cl_points <- SS.add ("lock:" ^ lock) c.cl_points);
    rp_request =
      (fun ~step:_ ~tid:_ ~iid:_ ~lock ~locks:_ ->
        c.cl_points <- SS.add ("wait:" ^ lock) c.cl_points);
    rp_release = (fun ~step:_ ~tid:_ ~lock:_ -> ());
    rp_spawn = (fun ~step:_ ~parent:_ ~child:_ -> ());
    rp_join = (fun ~step:_ ~tid:_ ~joined:_ -> ());
    rp_wake = (fun ~step:_ ~waker:_ ~woken:_ -> ());
  }

let order_text pa =
  match pa.pa_folded with
  | None -> Buffer.contents pa.pa_buf
  | Some d -> "md5:" ^ Digest.to_hex (Digest.string (d ^ Buffer.contents pa.pa_buf))

let observed (c : collector) : observed =
  {
    ob_orders =
      Hashtbl.fold (fun a pa acc -> (a, order_text pa) :: acc) c.addrs []
      |> List.sort compare;
    ob_points = SS.elements c.cl_points;
    ob_edges = SS.elements c.cl_edges;
  }

(* --- the signature ------------------------------------------------- *)

(* The one writer of the conair-sig-v1 bytes:

     conair-sig-v1|c:CONTEXT|n:N(|p:ORD:FROM>CHOSEN)*(|a:ADDR=ORDER)*

   one [|p:] per preemption ordinal in the order given, FROM/CHOSEN the
   tids at ORD-1/ORD ([-1] out of range), then the [orders] sorted.
   A deadlock sweep run has about ten thousand preemptions; a [Printf]
   per entry would cost more than the run itself, so the decimal digits
   go straight into one growable byte buffer, which is hashed once. *)

type writer = { mutable buf : Bytes.t; mutable len : int }

(* After [room w k], [k] bytes may be written unchecked. *)
let room w k =
  if w.len + k > Bytes.length w.buf then begin
    let b = Bytes.create (max (w.len + k) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let put_char w c =
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let put_string w s =
  let k = String.length s in
  room w k;
  Bytes.unsafe_blit_string s 0 w.buf w.len k;
  w.len <- w.len + k

(* Digits are taken on the non-positive side, which keeps [min_int]
   exact: [neg_digits 1 x] counts those of [-x], [put_neg_digits] writes
   them with the last at [i]. *)
let rec neg_digits d x = if x <= -10 then neg_digits (d + 1) (x / 10) else d

let rec put_neg_digits b i x =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (x mod 10)));
  if x <= -10 then put_neg_digits b (i - 1) (x / 10)

let int_room = 20 (* bytes of [string_of_int min_int] *)

(* [x] in decimal, after [room w int_room] *)
let put_int w x =
  if x >= 0 && x < 10 then put_char w (Char.unsafe_chr (48 + x))
  else begin
    let neg = if x < 0 then x else -x in
    let d = neg_digits 1 neg in
    if x < 0 then put_char w '-';
    put_neg_digits w.buf (w.len + d - 1) neg;
    w.len <- w.len + d
  end

let signature_stream ?(context = "") ?(orders = []) ~n ~decision
    ~preemptions () =
  let w = { buf = Bytes.create 256; len = 0 } in
  put_string w "conair-sig-v1|c:";
  put_string w context;
  put_string w "|n:";
  room w int_room;
  put_int w n;
  preemptions (fun p ->
      room w (5 + (3 * int_room));
      put_char w '|';
      put_char w 'p';
      put_char w ':';
      put_int w p;
      put_char w ':';
      put_int w (if p > 0 && p <= n then decision (p - 1) else -1);
      put_char w '>';
      put_int w (if p >= 0 && p < n then decision p else -1));
  List.iter
    (fun (a, t) ->
      put_string w "|a:";
      put_string w a;
      put_string w "=";
      put_string w t)
    (List.sort compare orders);
  Digest.to_hex (Digest.subbytes w.buf 0 w.len)

let signature ?context ?orders ~(decisions : int array)
    ~(preemptions : int array) () : string =
  signature_stream ?context ?orders ~n:(Array.length decisions)
    ~decision:(Array.get decisions)
    ~preemptions:(fun f -> Array.iter f preemptions)
    ()

(* --- the coverage map ---------------------------------------------- *)

type app_cov = { mutable ac_points : SS.t; mutable ac_edges : SS.t }

type t = {
  cov_apps : (string, app_cov) Hashtbl.t;
  mutable cov_sigs : SS.t;
}

let create () = { cov_apps = Hashtbl.create 8; cov_sigs = SS.empty }

let app_cov t app =
  match Hashtbl.find_opt t.cov_apps app with
  | Some ac -> ac
  | None ->
      let ac = { ac_points = SS.empty; ac_edges = SS.empty } in
      Hashtbl.replace t.cov_apps app ac;
      ac

let note t ~app (o : observed) =
  let ac = app_cov t app in
  ac.ac_points <- List.fold_left (fun s p -> SS.add p s) ac.ac_points o.ob_points;
  ac.ac_edges <- List.fold_left (fun s e -> SS.add e s) ac.ac_edges o.ob_edges

let note_signature t s =
  if SS.mem s t.cov_sigs then false
  else begin
    t.cov_sigs <- SS.add s t.cov_sigs;
    true
  end

let seen_signature t s = SS.mem s t.cov_sigs
let signatures t = SS.cardinal t.cov_sigs

let novelty t ~app (o : observed) =
  let total = List.length o.ob_points + List.length o.ob_edges in
  if total = 0 then 0.
  else
    match Hashtbl.find_opt t.cov_apps app with
    | None -> 1.
    | Some ac ->
        let fresh =
          List.length
            (List.filter (fun p -> not (SS.mem p ac.ac_points)) o.ob_points)
          + List.length
              (List.filter (fun e -> not (SS.mem e ac.ac_edges)) o.ob_edges)
        in
        float_of_int fresh /. float_of_int total

let apps t =
  Hashtbl.fold (fun app _ acc -> app :: acc) t.cov_apps [] |> List.sort compare

let points t ~app =
  match Hashtbl.find_opt t.cov_apps app with
  | None -> []
  | Some ac -> SS.elements ac.ac_points

let edges t ~app =
  match Hashtbl.find_opt t.cov_apps app with
  | None -> []
  | Some ac -> SS.elements ac.ac_edges

let to_json t : Json.t =
  Json.Obj
    [
      ("type", Json.String "coverage");
      ("signatures", Json.Int (signatures t));
      ( "apps",
        Json.Obj
          (List.map
             (fun app ->
               ( app,
                 Json.Obj
                   [
                     ( "points",
                       Json.List
                         (List.map (fun p -> Json.String p) (points t ~app)) );
                     ( "edges",
                       Json.List
                         (List.map (fun e -> Json.String e) (edges t ~app)) );
                   ] ))
             (apps t)) );
    ]

let merge_json t (j : Json.t) : (unit, string) result =
  match Json.member "apps" j with
  | Some (Json.Obj apps_kv) ->
      let rec go = function
        | [] -> Ok ()
        | (app, entry) :: rest -> (
            let pts =
              Option.value ~default:(Json.List [])
                (Json.member "points" entry)
            in
            let eds =
              Option.value ~default:(Json.List []) (Json.member "edges" entry)
            in
            match
              ( string_list_of_json "points" pts,
                string_list_of_json "edges" eds )
            with
            | Ok ps, Ok es ->
                note t ~app
                  { ob_orders = []; ob_points = ps; ob_edges = es };
                go rest
            | Error e, _ | _, Error e ->
                Error (Printf.sprintf "app %S: %s" app e))
      in
      go apps_kv
  | Some _ -> Error "\"apps\" is not an object"
  | None -> Error "no \"apps\" member"
