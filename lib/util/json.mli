(** Minimal JSON without a dependency: the one writer every document
    of this repository is encoded with (trace reports, Chrome traces,
    monitor snapshots, attribution reports, doctor reports and health
    dumps, the lint summary), and a reader that parses them back.
    Numbers are floats; object fields keep their order. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. *)

(** {1 Accessors} ([None] on shape mismatch) *)

val member : string -> t -> t option

val to_int : t -> int option
(** [None] unless the number is integral and within [int]'s range. *)

val to_string : t -> string option
val to_list : t -> t list option

(** {1 Writing} *)

val int : int -> t
(** [Number] of an [int]. *)

val encode : t -> string
(** Compact JSON: no whitespace between tokens, fields in list order.
    Strings escape double quote, backslash and newline with a
    backslash and every other control character as [\u00XX]; other
    bytes pass through.  One rule writes every number, so the text
    depends only on the value's bits:
    - a non-finite number is [null];
    - an integer with [|x| < 2^53] is its digits ([-0.] is [-0]);
    - any other number is the shortest of [%.15g], [%.16g] and
      [%.17g] that reads back to the same bits.
    So [parse (encode v) = Ok v] for every document without a
    non-finite number. *)

val write_file : string -> t -> unit
(** [write_file path v] writes [encode v] and a newline to [path]. *)
