(** Explicit float comparisons.

    Polymorphic [=] / [<>] on floats is banned in [lib/] by
    [flexile-lint] (rule [d2-float-eq]): a stray exact comparison in a
    tolerance path silently breaks the bit-identical-at-any-[--jobs]
    guarantee when a rounding mode or evaluation order changes.  Every
    float comparison must go through this module, which makes the
    intent — tolerance or deliberate exact IEEE equality — explicit at
    the call site. *)

val eq : float -> float -> bool
(** [eq a b] is [|a - b| <= 1e-9].  False if either argument is
    NaN. *)

val nonzero : float -> bool
(** Exact IEEE [x <> 0.] ([-0.] is zero, NaN is nonzero).  For sparsity
    tests where a value is zero only if it was never touched — not a
    tolerance. *)

val exactly_equal : float -> float -> bool
(** Exact IEEE [a = b] ([nan] equals nothing, [0. = -0.]).  For
    comparing values that must be bit-for-bit reproductions of each
    other, e.g. differential parallel-vs-sequential checks. *)
