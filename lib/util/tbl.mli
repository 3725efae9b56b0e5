(** Deterministic, sorted-key traversal of [Hashtbl.t].

    Raw [Hashtbl.iter] / [Hashtbl.fold] visit bindings in bucket order,
    which depends on the insertion sequence and the table's growth
    history; letting that order escape into LP rows or solver output
    breaks the bit-identical-at-any-[--jobs] guarantee.  [flexile-lint]
    rule [d3-tbl-order] bans them in [lib/]; these helpers are the
    sanctioned replacement.  All traversals visit keys in ascending
    polymorphic-compare order and see each key's current binding
    (replace semantics — shadowed [Hashtbl.add] duplicates are not
    visited twice). *)

val sorted_bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** [(key, current binding)] pairs in ascending key order. *)

val sorted_iter : ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [Hashtbl.iter], but in ascending key order. *)

val sorted_fold : ('a -> 'b -> 'acc -> 'acc) -> ('a, 'b) Hashtbl.t -> 'acc -> 'acc
(** [Hashtbl.fold], but in ascending key order. *)
