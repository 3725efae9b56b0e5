(** A minimal JSON reader, just enough to parse back the documents this
    repository emits (trace reports, Chrome traces, bench baselines)
    without pulling in a dependency, and the one string escaper those
    documents are written with.  Numbers are floats; object fields keep
    textual order. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. *)

val parse_file : string -> (t, string) result

(** {1 Accessors} ([None] on shape mismatch) *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

(** {1 Writing} *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    double quote, backslash and newline are backslash-escaped, every
    other control character (tab included) is written as [\u00XX]. *)
