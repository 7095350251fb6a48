(** Minimal JSON: a parser and printer for the toolchain's hand-rolled
    JSON surfaces (the wire protocol's newline-JSON framing, scrape
    snapshots, test-side validation). No external dependency.

    Two deliberate deviations from strict JSON, both for exact float
    round-trips: numbers are printed with [%.17g] (so every finite
    IEEE double survives print→parse bit-exactly), and the bare tokens
    [inf], [-inf] and [nan] are accepted and printed for non-finite
    floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Raises {!Parse_error} on malformed input (position included).
    Rejects trailing garbage after the top-level value. *)
val parse : string -> t

val parse_opt : string -> t option

(** Compact single-line rendering. *)
val to_string : t -> string

(** Object field lookup (first match); [None] on non-objects. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** Exact float literal, [%.17g] ([inf]/[-inf]/[nan] when
    non-finite) — shared by every hand-rolled writer that needs
    round-trip-exact floats. *)
val float_literal : float -> string

(** Body of a JSON string literal: quotes, backslashes and control
    characters escaped. The one string escaper behind every
    hand-rolled writer. *)
val escape : string -> string

(** Short float literal for reports, [%.6g] ([null] when non-finite):
    the number format of metric snapshots, traces, time series and
    the bench's results file. *)
val short_float : float -> string
