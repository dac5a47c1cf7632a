(** Minimal JSON tree with an emitter and a strict parser.

    Used by the bench suites to write [BENCH_*.json] and by the smoke test
    to read the file back and assert required keys, avoiding an external
    JSON dependency. Numbers are floats; NaN/infinite values emit as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
val to_file : ?indent:int -> string -> t -> unit

val to_string_compact : t -> string
(** Single-line form (no newlines, no padding) — one JSON-lines record. *)

val to_buffer_compact : Buffer.t -> t -> unit
(** Same, appended to an existing buffer (no trailing newline). *)

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input (including trailing garbage). *)

val of_file : string -> t

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and absent keys. *)

val to_list : t -> t list option
val to_float : t -> float option
