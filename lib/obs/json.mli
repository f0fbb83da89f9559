(** A minimal, dependency-free JSON representation: enough to emit every
    telemetry artifact (JSONL event logs, metric dumps, Chrome traces)
    and to re-parse them for validation. Not a general-purpose JSON
    library — no streaming parser, no number-precision guarantees beyond
    OCaml [int]/[float], object keys kept in insertion order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys in emission order *)

val to_buffer : Buffer.t -> t -> unit
(** Compact (single-line) encoding; strings are escaped per RFC 8259
    (["\""], ["\\"], control characters as [\uXXXX]; all other bytes pass
    through, so valid UTF-8 input stays valid UTF-8). *)

val to_string : t -> string
(** Compact single-line encoding — one call, one JSONL-ready line. *)

val to_string_pretty : t -> string
(** Indented multi-line encoding for files meant to be read by humans. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (surrounding whitespace allowed).
    Accepts exactly what [to_string] emits plus standard JSON; rejects
    trailing garbage. Numbers with [.], [e] or [E] parse as [Float],
    everything else as [Int]. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing key or non-object. *)

(** {1 Strict field decoders}

    The artifact codecs decode with these, so a missing or mistyped
    member is an [Error] naming the field ("missing/malformed \"name\"
    field"); callers prefix the artifact kind. *)

val field : string -> t -> (t, string) result
val string_field : string -> t -> (string, string) result
val int_field : string -> t -> (int, string) result
val bool_field : string -> t -> (bool, string) result
val int_list_field : string -> t -> (int list, string) result
val string_list_field : string -> t -> (string list, string) result

val string_opt_field : string -> t -> (string option, string) result
(** [Ok None] when absent; a present member must be a string. *)

val list_field :
  string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** A list member, each element decoded by the given function; the
    first element error is the result. *)

(** {1 Lenient member readers}

    For folds over record streams that default what they cannot read:
    [""] / [0] / [0.] on a missing or mistyped member. The numeric
    readers accept either JSON number form ([int_member] truncates a
    float). *)

val string_member : string -> t -> string
val int_member : string -> t -> int
val float_member : string -> t -> float

val equal : t -> t -> bool
(** Structural equality with order-insensitive object comparison
    (duplicate keys compare positionally after sorting). *)
