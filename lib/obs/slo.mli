(** SLO attainment over an observed scenario stream.

    The offline phase promises each class a PercLoss at its
    availability target beta (paper Definition 4.2); an {!t} tracker
    accumulates the per-flow losses actually delivered as scenarios
    arrive and reports, per class:

    - {e attainment}: the beta-percentile of observed flow loss,
      computed with the same machinery as the offline analysis
      ({!Flexile_te.Metrics.perc_loss} over an
      {!Flexile_te.Instance.losses} matrix).  Scenarios not yet
      observed keep the matrix's initial loss of 1.0, so the number is
      conservative until coverage completes — and reconciles exactly
      with the offline analysis once it does.

    - {e burn rate}: over a sliding window of the last [window] draws,
      the fraction of draws on which some positive-demand flow of the
      class exceeded its promise (beyond [tol]), divided by the error
      budget [1 - beta].  Sustained burn rate > 1 means the class is
      on track to miss its target.

    Draws that fall outside the enumerated scenario set
    ({!observe_unenumerated}) are charged as violations of every
    class, mirroring the conservative loss-1.0 treatment of
    unenumerated mass. *)

type t

val create :
  ?window:int -> promised:float array -> Flexile_te.Instance.t -> t
(** [create ~promised inst] with [promised.(k)] the offline PercLoss
    promise of class [k] (length must equal the class count).
    [window] (default 100, >= 1) is the burn-rate window in draws.
    Every promise comparison allows a slack of 1e-6. *)

val observe : t -> sid:int -> losses:float array -> unit
(** Record one draw of enumerated scenario [sid] with per-flow
    delivered losses ([losses.(fid)], length = flow count).  Values
    are clamped to [0, 1] exactly as the scenario engine does, fed
    into the [slo.flow_loss] histogram, written into the observed
    matrix, and compared against the promises for the burn-rate
    window. *)

val observe_unenumerated : t -> unit
(** Record one draw outside the enumerated set: a violation of every
    class (the observed matrix is untouched — unenumerated mass is
    already charged at loss 1.0 by the percentile machinery). *)

val observed_losses : t -> Flexile_te.Instance.losses
(** The live observed loss matrix (unseen scenarios still at 1.0).
    Read-only view shared with the tracker — do not mutate; analyzing
    it with {!Attribution.analyze} reconciles with this tracker's
    attainment by construction (same matrix, same machinery). *)

type class_report = {
  rcls : int;
  rname : string;
  rbeta : float;
  rpromised : float;
  robserved : float;
      (** [Metrics.perc_loss] of the observed matrix at the class
          target *)
  rattained : bool;  (** [robserved <= rpromised + 1e-6] *)
  rbad_draws : int;  (** violating draws since creation *)
  rwindow_bad : int;
  rwindow_len : int;
  rburn_rate : float;
      (** [(window violations / window length) / (1 - beta)]; [0.]
          before the first draw; [infinity] when [beta >= 1] and the
          window holds a violation *)
}

val report : t -> class_report list
(** One report per class, in class order. *)

val draws : t -> int
val unenumerated_draws : t -> int
val scenarios_seen : t -> int

val report_json : t -> Flexile_util.Json.t
(** The report as JSON:
    [{"draws":..,"unenumerated":..,"scenarios_seen":..,"scenarios":..,
      "classes":[{"cls":..,"name":..,"beta":..,"promised":..,
      "observed":..,"attained":..,"bad_draws":..,"window_bad":..,
      "window_len":..,"burn_rate":..},..]}].
    Deterministic for a fixed observation sequence; non-finite numbers
    encode as [null]. *)
