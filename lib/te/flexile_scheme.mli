(** Flexile end-to-end: offline critical-scenario selection followed by
    the online critical-flow-aware allocation in every scenario.  The
    returned loss matrix is what a Flexile deployment would experience
    (§4), and is what all Flexile numbers in the evaluation report. *)

type result = {
  losses : Instance.losses;  (** online-phase losses, all scenarios *)
  offline : Flexile_offline.result;
}

val run : ?config:Flexile_offline.config -> Instance.t -> result
(** [config.jobs] (0 = auto) sets the fan-out of both the offline sweep
    and the online phase. *)
