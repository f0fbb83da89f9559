(* A minimal JSON encoder/parser. The whole observability layer rests on
   this module, so it stays dependency-free and boring: a plain algebraic
   type, a Buffer-based encoder, and a recursive-descent parser used to
   validate what we emitted (the smoke alias, round-trip tests). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding ------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN/Infinity; emit null like most encoders do. %.17g keeps
   every float round-trippable, but trim the common integral case. *)
let add_float buf f =
  if Float.is_nan f || Float.equal f Float.infinity
     || Float.equal f Float.neg_infinity
  then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else begin
    let s = Printf.sprintf "%.12g" f in
    if Float.equal (float_of_string s) f then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> add_float buf f
  | String s -> escape_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let rec pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as j -> to_buffer buf j
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          pretty buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          escape_string buf k;
          Buffer.add_string buf ": ";
          pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 512 in
  pretty buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub c.src c.pos 4) in
  c.pos <- c.pos + 4;
  v

(* Encode a code point as UTF-8 (we only ever re-read our own output, but
   accept anything standard). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | Some '"' -> Buffer.add_char buf '"'; c.pos <- c.pos + 1; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; c.pos <- c.pos + 1; go ()
        | Some '/' -> Buffer.add_char buf '/'; c.pos <- c.pos + 1; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; c.pos <- c.pos + 1; go ()
        | Some 't' -> Buffer.add_char buf '\t'; c.pos <- c.pos + 1; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; c.pos <- c.pos + 1; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; c.pos <- c.pos + 1; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; c.pos <- c.pos + 1; go ()
        | Some 'u' ->
            c.pos <- c.pos + 1;
            let hi = parse_hex4 c in
            let cp =
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                (* surrogate pair *)
                expect c '\\';
                expect c 'u';
                let lo = parse_hex4 c in
                0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else hi
            in
            add_utf8 buf cp;
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') -> c.pos <- c.pos + 1; true
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        c.pos <- c.pos + 1;
        true
    | _ -> false
  in
  while consume () do () done;
  let text = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length src then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Parse_error msg -> Error msg

(* --- accessors ----------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Strict field decoders. The artifact codecs (schedule logs, flight
   bundles) are their own validators, so a missing or mistyped member
   is an [Error] naming it, never a default. *)

let ( let* ) = Result.bind

let field name j =
  match member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %S field" name)

let list_field name decode j =
  match member name j with
  | Some (List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* v = decode item in
            go (v :: acc) rest
      in
      go [] l
  | _ -> Error (Printf.sprintf "malformed %S field" name)

let typed name decode j =
  match member name j with
  | Some v -> (
      match decode v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "malformed %S field" name))
  | None -> Error (Printf.sprintf "missing %S field" name)

let as_string = function String s -> Some s | _ -> None
let as_int = function Int n -> Some n | _ -> None

let as_list decode = function
  | List l ->
      let items = List.filter_map decode l in
      if List.compare_lengths items l = 0 then Some items else None
  | _ -> None

let string_field name = typed name as_string
let int_field name = typed name as_int
let bool_field name = typed name (function Bool b -> Some b | _ -> None)
let int_list_field name = typed name (as_list as_int)
let string_list_field name = typed name (as_list as_string)

let string_opt_field name j =
  match member name j with
  | None -> Ok None
  | Some _ -> Result.map Option.some (string_field name j)

(* Lenient member readers, for folds over record streams (aggregates,
   campaign reports, protocol frames) that default what they cannot
   read instead of rejecting the stream. *)

let string_member key j =
  match member key j with Some (String s) -> s | _ -> ""

let int_member key j =
  match member key j with
  | Some (Int n) -> n
  | Some (Float f) -> int_of_float f
  | _ -> 0

let float_member key j =
  match member key j with
  | Some (Float f) -> f
  | Some (Int n) -> float_of_int n
  | _ -> 0.

let rec equal a b =
  match (a, b) with
  | Obj xs, Obj ys ->
      let sort = List.sort (fun (k, _) (k', _) -> compare k k') in
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && equal v v')
           (sort xs) (sort ys)
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | a, b -> a = b
