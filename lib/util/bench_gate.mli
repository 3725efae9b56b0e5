(** Sample median, shared by the end-to-end benchmark's timed phases. *)

val median : float list -> float
(** Median of the samples ([0.] for an empty list; mean of the middle
    pair for even counts). *)
