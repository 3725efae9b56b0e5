(** Numerical health observatory for the sparse revised simplex.

    The solver feeds this module once per refactorization and once at
    solution extraction — never per pivot, so the noalloc pivot kernels
    stay untouched.  Each sample measures the relative primal/dual
    residuals of the current factorization, a Hager-style 1-norm
    condition estimate, LU element growth, near-singular pivot rows and
    the eta-file epoch statistics; the simplex loops additionally
    report degeneracy stalls and Bland-fallback dwell.  Everything
    flows into [Trace] metrics under the [health.] prefix; states
    created with [capture] also keep an in-memory timeline for
    [Doctor].  See DESIGN.md section 15. *)

(** {1 Thresholds} *)

(** The sample thresholds.  See DESIGN.md section 15 for the rationale
    behind each. *)

val cond_limit : float
(** A condition estimate above this trips: 1e10. *)

val residual_limit : float
(** Relative primal/dual residual limit: 1e-6. *)

val growth_limit : float
(** LU element growth limit: 1e8. *)

val near_singular_rtol : float
(** [Sparse.Basis.near_singular_rows] rtol: 1e-7. *)

(** {1 Samples} *)

type kind = Refactor | Final

type eta_epoch = {
  ee_len : int;  (** etas accumulated when the epoch closed *)
  ee_nnz : int;
  ee_rejections : int;  (** updates refused for a tiny pivot *)
  ee_growth : float;  (** max pivot growth over the epoch's etas *)
  ee_min_diag : float;  (** smallest accepted eta pivot; [infinity] if none *)
}

val empty_epoch : eta_epoch

type sample = {
  s_kind : kind;
  s_phase : int;  (** 0 setup, 1 phase-1, 2 phase-2, 3 dual *)
  s_iteration : int;
  s_primal_res : float;  (** relative [||B x_B - b~||_inf] *)
  s_dual_res : float;  (** relative [||B^T y - c_B||_inf] *)
  s_cond1 : float;  (** Hager estimate of [kappa_1(B)] *)
  s_growth : float;  (** LU element growth [max|U|/max|B|] *)
  s_udiag_min : float;
  s_udiag_max : float;
  s_eta : eta_epoch;  (** stats of the epoch this sample closed *)
  s_near_singular : (int * float) list;  (** [(row, |u_diag|)], ascending *)
  s_patched : (int * int) list;  (** singular positions patched by factor *)
  s_tripped : string list;  (** threshold names exceeded, fixed order *)
}

type stall = { st_phase : int; st_iteration : int; st_run : int }

type loop_note = {
  ln_phase : int;
  ln_iterations : int;
  ln_max_run : int;  (** longest consecutive zero-step run *)
  ln_bland : int;  (** iterations spent under the Bland fallback *)
}

(** {1 State} *)

type state
(** Per-solver-instance health state: scratch vectors, stall limit,
    sampling stride count and the captured timeline.  Not shared across domains — each solver
    template owns one. *)

val make : ?stall_limit:int -> int -> state
(** [make m] allocates scratch for an [m]-row basis.  [stall_limit]
    (default 120) is the number of consecutive zero-step pivots that
    makes a stall.  Capture (see {!set_capture}) starts off: turned
    on, it records the sample/stall/loop timeline in memory — the
    elevated-instrumentation mode [flexile doctor] runs under. *)

val stall_limit : state -> int
val capture : state -> bool
val set_capture : state -> bool -> unit

val set_on_trip : state -> (string list -> unit) -> unit
(** Hook invoked (with the tripped threshold names) whenever a sample
    exceeds a threshold; the solver installs the snapshot dumper here. *)

val samples : state -> sample list
(** Captured samples, oldest first.  Empty unless [capture]. *)

val stalls : state -> stall list
(** Captured stalls, oldest first.  Empty unless [capture]. *)

val loop_notes : state -> loop_note list

val clear : state -> unit
(** Drops the captured timeline (stall limit and scratch stay). *)

(** {1 Sampling entry points (called by the solver)} *)

val sample_due : state -> basic:int array -> bool
(** Sampling-policy gate the solver consults at each opportunity
    (refactorization or extraction), [basic] being the basic variable
    of each row there.  Always true in capture (doctor) mode; in
    production, true once every 16 opportunities of the state, at a
    phase hashed from [basic] at its first — a full sample costs a
    dozen basis solves, and the stride keeps the observatory inside
    its 2% overhead budget (DESIGN.md section 15).  The sampled subset
    depends only on the solve, not on the job count.  Calling it
    advances the count. *)

val sample :
  state ->
  basis:Sparse.Basis.t ->
  pat:int array ->
  kind:kind ->
  phase:int ->
  iteration:int ->
  col:(int -> (int -> float -> unit) -> unit) ->
  cb:(int -> float) ->
  btilde:float array ->
  xb:float array ->
  eta:eta_epoch ->
  patched:(int * int) list ->
  unit
(** Measure the factorized basis: [col pos f] enumerates the basis
    column at [pos]; [cb pos] is the cost of the basic variable there;
    [btilde] is the row-space right-hand side [b - N x_N]; [xb] the
    basic values; [eta] the epoch statistics read before the
    factorization reset them; [pat] the solves' pattern scratch, of at
    least [m] slots.  Costs a handful of FTRAN/BTRAN solves
    plus O(nnz) scans; must be called at most once per refactorization
    or extraction. *)

val note_stall : state -> phase:int -> iteration:int -> run:int -> unit
(** The solver detected [run] consecutive zero-step ratio tests. *)

val note_loop_end :
  state -> phase:int -> iterations:int -> max_run:int -> bland:int -> unit
(** End-of-loop summary: longest zero-step run and Bland dwell. *)

val note_dual_guard_trip : unit -> unit
(** A warm-started dual solve failed the a-posteriori dual-feasibility
    guard; primal phase 2 finishes from its basis. *)

(** {1 Reproducible LP dumps}

    When a threshold trips and the [FLEXILE_HEALTH_DUMP] environment
    variable names a directory, the solver writes a self-contained
    snapshot (model, basis, variable statuses, trip metadata) there.
    Floats round-trip through hexadecimal literals, so a replay sees
    the exact bit patterns.  File name is deterministic per model
    ([health-dump-<name>.json]), so repeated trips overwrite rather
    than accumulate. *)

type dump = {
  d_reasons : string list;
  d_phase : int;
  d_iteration : int;
  d_eta_limit : int option;
  d_model : Lp_model.t;
  d_basis : int array;  (** basic variable per position *)
  d_vstat : int array;  (** per-variable status codes *)
}

val dump_dir : unit -> string option
(** The [FLEXILE_HEALTH_DUMP] directory, if set and nonempty. *)

val write_dump : dump -> string option
(** Write (or overwrite) the snapshot, one JSON document in which every
    float of the model is a hexadecimal literal (["%h"], or
    ["inf"]/["-inf"]/["nan"]) that reads back to the same bits, at the
    deterministic path [health-dump-<model name>.json] under
    {!dump_dir}, and return that path; [None] when dumping is not
    enabled.  Creates the directory if missing. *)

val read_dump : string -> (dump, string) result
(** [Error] — never an exception — for an unreadable file, malformed
    JSON, a missing or ill-typed field, a schema mismatch, a model the
    {!Lp_model} builders reject, and a basis that does not fit the
    model: [d_basis] must hold one entry per row and [d_vstat] one per
    column of the simplex's column space (the variables, then a slack
    and an artificial per row), each in range. *)
