(** Uniform interface over every TE scheme the paper evaluates.  Each
    scheme maps an instance to a post-analysis loss matrix; the same
    metrics are then computed over all of them (§6 "performance
    metric"). *)

type t =
  | Flexile
  | Smore  (** ScenBest(MLU): identical to SMORE's failure recovery *)
  | Scenbest_multi
  | Teavar
  | Cvar_flow_st
  | Cvar_flow_ad
  | Swan_maxmin
  | Swan_throughput
  | Ffc  (** Forward Fault Correction (§2 background), k = 1 *)
  | Ip

val name : t -> string

val all : t list
(** Every scheme, in the order above. *)

exception Timeout of t
(** Raised when a scheme exceeds its size guard (the paper reports the
    same schemes as TLE on large instances). *)

val run : ?jobs:int -> t -> Flexile_te.Instance.t -> Flexile_te.Instance.losses
(** Raises {!Timeout} instead of launching a CVaR/IP solve whose LP
    would be intractably large for the pure-OCaml simplex (the size
    guard).  [jobs] (default 0 = auto) sets the scenario
    fan-out of every scheme's sweep (see
    {!Flexile_te.Scenario_engine}). *)
