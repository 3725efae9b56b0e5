(** Forward Fault Correction (FFC, SIGCOMM'14), the congestion-free
    baseline of the paper's §2.

    FFC plans offline for *all* scenarios with up to [k] simultaneous
    link failures: it grants each flow a bandwidth [b_f <= d_f] and a
    static tunnel allocation such that after any [k] links fail, the
    flow's surviving tunnel allocations still cover [b_f] (traffic is
    proportionally rescaled onto live tunnels, never exceeding their
    reserved allocation, so the network stays congestion-free).  The
    robust constraint "b_f <= allocation minus the k largest tunnel
    terms" is dualized into the standard LP.

    The paper's critique — which this implementation lets you measure —
    is that designing for a failure *count* instead of failure
    *probabilities* is very conservative: on the Fig-1 triangle, FFC
    with k = 1 grants each flow only 0.5 units even though each could
    be served fully 99% of the time. *)

type result = {
  losses : Instance.losses;  (** post-analysis over the instance's scenarios *)
  granted : float array;  (** per flow: the guaranteed bandwidth b_f *)
  allocation : float array array;  (** pair -> tunnel -> reserved bandwidth *)
}

(* k = 0 and k = 2 are how test_te_toy.ml "ffc conservatism" checks
   the protection level, and k = 0 grants the positive share
   test_te_real.ml's loss recomputation checks FFC on *)
val run : ?k:int -> ?jobs:int -> Instance.t -> result
  [@@lint.allow "u2-single-value-knob"]
(** [k] defaults to 1 (single-link-failure protection; supported up to
    2, by explicit enumeration over the flow's own tunnel links).
    Single traffic class, like the paper's FFC discussion.  Maximizes
    the concurrent scale [s] with [b_f = s * d_f] over base demands,
    then evaluates losses in every sampled scenario against the
    scenario's demand [d_fq]
    ([loss = 1 - min(b_f, surviving allocation) / d_fq], 0 when
    [d_fq = 0]). *)
