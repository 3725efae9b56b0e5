(** Fig. 18 (appendix D): the largest factor by which low-priority
    traffic can be scaled while still incurring zero loss at its 99th
    percentile, compared across schemes.  Flexile sustains markedly
    higher scale than SWAN-Maxmin because different flows may meet
    their target in different failure states. *)

val search :
  ?options:Builder.options ->
  ?steps:int ->
  scheme:Schemes.t ->
  graph:Flexile_net.Graph.t ->
  unit ->
  float
(** Binary search over the low-priority scale factor in [0.25, 4.0]
    ([steps] default 6); returns the largest factor for
    which the scheme's low-priority PercLoss at beta 0.99 is ~0. *)
