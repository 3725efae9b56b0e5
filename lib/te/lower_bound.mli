(** Cheap instance-wide lower bound on the optimal PercLoss.

    For each flow in isolation, the least loss it could suffer in a
    scenario — given the {e entire} network to itself — is a lower
    bound on its loss under any scheme; the beta-percentile of those
    per-scenario minima is therefore a lower bound on FlowLoss(f,beta),
    and the max across a class's flows lower-bounds PercLoss_k.  When a
    scheme achieves this bound (Flexile frequently achieves 0), it is
    provably optimal without solving the IP. *)

(* test oracle: the golden pins digest the whole matrix, which
   [perc_loss_lower_bound] reduces to one number per class *)
val isolated_losses : Instance.t -> Instance.losses
  [@@lint.allow "u1-unused-export"]
(** [isolated_losses inst].(fid).(sid): minimum loss of the flow when
    routed alone over its alive tunnels in the scenario. *)

val perc_loss_lower_bound : Instance.t -> cls:int -> float
