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

(* test input: the certificate and health-dump tests solve and dump
   the fixture models themselves; the CLI reaches them through
   [run_fixture] *)
val fixture : string -> Lp_model.t option
  [@@lint.allow "u1-unused-export"]
(** The fixture of a CLI name, [None] for any other name:
    - ["near-singular"]: an LP whose optimal basis contains the 2x2
      block [[1,1],[1,1+eps]] with [eps = 1e-10] — condition [~4e10],
      tripping the default [cond_limit] — plus a 16-step degenerate
      chain that forces consecutive zero-step pivots.  Model name
      ["near-singular-fixture"].
    - ["degenerate"]: the chain alone (["degenerate-chain-fixture"]):
      it stalls under the doctor's stall limit of 8 (production: 120)
      but is numerically sound. *)

(** {1 Running a diagnosis} *)

type result = {
  r_report : Flexile_util.Json.t;  (** the diagnosis document *)
  r_solution : Simplex.solution;
  r_health : Health.state;  (** captured timeline of the replay *)
  r_healthy : bool;  (** no stalls, trips or near-singular rows *)
}

val run_fixture : string -> (result, string) Stdlib.result
(** Replay a seeded fixture under [Simplex.solve_doctor] with the
    production thresholds, the stall limit lowered to 8, and render
    the report.  An optimal answer's [Certificate] is in the report's
    ["certificate"] object (null for any other status); a failed one
    adds a verdict. *)

val run_dump : string -> (result, string) Stdlib.result
(** Read a [Health.write_dump] snapshot and diagnose it: the dumped
    basis measured as captured ([Simplex.diagnose_basis]), plus a
    replay of the dumped model as {!run_fixture} does, under the
    dump's recorded eta limit. *)
