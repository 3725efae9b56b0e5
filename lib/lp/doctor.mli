(** [flexile doctor]: replay a solve with elevated instrumentation and
    emit a structured JSON diagnosis — which phase stalled, which basis
    rows are near-singular, which health thresholds tripped, whether
    an optimal answer carries an LP duality certificate
    ([Certificate]).  See DESIGN.md section 15.

    Reports are deterministic: the replay runs on the calling domain,
    {!Flexile_util.Json.encode} writes each number from its bits alone
    (non-finite ones as [null]), and nothing wall-clock- or
    job-count-dependent is included, so a fixture or dump diagnosis is
    byte-identical at any [--jobs]. *)

(** {1 Seeded pathological fixtures} *)

val near_singular_fixture : unit -> Lp_model.t
(** An LP whose optimal basis contains the 2x2 block
    [[1,1],[1,1+eps]] with [eps = 1e-10] — condition [~4e10], tripping
    the default [cond_limit] — plus a 16-step degenerate chain that
    forces consecutive zero-step pivots.  Model name
    ["near-singular-fixture"]. *)

val degenerate_fixture : unit -> Lp_model.t
(** The degenerate chain alone (["degenerate-chain-fixture"]): stalls
    under the doctor's lowered stall limit but is numerically sound. *)

val fixture_names : string list
(** CLI names: [["near-singular"; "degenerate"]]. *)

val fixture : string -> Lp_model.t option

val doctor_thresholds : unit -> Health.thresholds
(** [Health.default_thresholds] with the stall limit lowered to 8
    (unless pinned via [FLEXILE_HEALTH_STALL]) — the doctor's elevated
    instrumentation. *)

(** {1 Running a diagnosis} *)

type source =
  | Src_fixture of string
  | Src_dump of string * Health.dump  (** path and parsed snapshot *)
  | Src_model

type result = {
  r_report : Flexile_util.Json.t;  (** the diagnosis document *)
  r_solution : Simplex.solution;
  r_health : Health.state;  (** captured timeline of the replay *)
  r_healthy : bool;  (** no stalls, trips or near-singular rows *)
}

val run_lp : ?source:source -> ?dump:Health.dump -> Lp_model.t -> result
(** Replay [model] under [Simplex.solve_doctor] with
    [doctor_thresholds] and render the report.  An optimal answer's
    [Certificate] is in the report's ["certificate"] object (null for
    any other status); a failed one adds a verdict.  When [dump] is
    given, its basis is additionally measured in isolation
    ([Simplex.diagnose_basis]) and its recorded eta limit governs the
    replay's refactorization cadence. *)

val run_fixture : string -> (result, string) Stdlib.result

val run_dump : string -> (result, string) Stdlib.result
(** Read a [Health.write_dump] snapshot and diagnose it: the dumped
    basis measured as captured, plus a full replay of the dumped model. *)
