(** Deterministic, sorted-key traversal of [Hashtbl.t].

    Raw [Hashtbl.iter] / [Hashtbl.fold] visit bindings in bucket order,
    which depends on the insertion sequence and the table's growth
    history; letting that order escape into LP rows or solver output
    breaks the bit-identical-at-any-[--jobs] guarantee.  [flexile-lint]
    rule [d3-tbl-order] bans them in [lib/]; this is the sanctioned
    replacement.  It lists keys in ascending polymorphic-compare order,
    each with its current binding (replace semantics — shadowed
    [Hashtbl.add] duplicates are not listed twice). *)

val sorted_bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** [(key, current binding)] pairs in ascending key order. *)
