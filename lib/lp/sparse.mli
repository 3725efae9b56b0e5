(** Sparse kernels for the revised simplex core.

    [Svec] is a reusable scatter/gather sparse-vector workspace; [Basis]
    is an LU-factorized simplex basis with product-form (eta-file)
    updates.  Both are deterministic — pivot selection and traversal
    order depend only on the input, never on hashing or time — and both
    reuse internal buffers so that the simplex pivot loop allocates
    nothing per pivot (the eta arena grows by amortized doubling).

    See DESIGN.md section 11 for the data layouts and invariants. *)

val nonzeros : float array -> int -> int array -> int
(** [nonzeros v m pat] writes the indices [i < m] with [v.(i)] nonzero
    into [pat], ascending, and returns their count: the pattern of a
    dense vector, for the solves of {!Basis}. *)

module Svec : sig
  type t
  (** A sparse vector of fixed dimension backed by a dense value array,
      an explicit pattern (insertion order), and a membership mark. *)

  val create : int -> t
  (** [create dim] allocates a cleared workspace of dimension [dim]. *)

  val nnz : t -> int

  val clear : t -> unit
  (** O(nnz): resets only the touched entries. *)

  val values : t -> float array
  (** The dense value array, indexed by entry.  Read-only: writes
      break the pattern invariant. *)

  val pattern : t -> int array
  (** The pattern in insertion order: its first [nnz t] entries are
      the touched indices.  Read-only, like [values].  Hot loops walk
      these two arrays directly instead of calling a closure per entry
      (a closure call boxes its float argument). *)

  val scatter_rows :
    t ->
    float array ->
    pat:int array ->
    nnz:int ->
    row_start:int array ->
    row_col:int array ->
    row_val:float array ->
    unit1:int ->
    unit2:int ->
    unit
  (** [scatter_rows t x ~pat ~nnz ~row_start ~row_col ~row_val ~unit1
      ~unit2] accumulates [x^T [A | I | I]] into [t], where [A] is the
      CSR matrix ([row_start] of length [Array.length x + 1]) and the
      two identity blocks start at columns [unit1] and [unit2].  [x] is
      zero outside the ascending pattern [pat.(0 .. nnz-1)]; the rows of
      the pattern with [x.(i) <> 0.] are visited in that order, each
      adding its [A] entries, then [unit1 + i], then [unit2 + i], which
      fixes the pattern order of [t].  An entry joins the pattern on its
      first touch, even when its sum is numerically zero. *)
end

module Basis : sig
  type t
  (** An [m]x[m] simplex basis held as [P B Q = L U] plus an eta file of
      product-form updates.  All solves are in place over caller-owned
      dense arrays of length [m], each paired with a caller-owned
      pattern array of at least [m] slots.

      A solve reads its input's pattern, [pat.(0 .. nnz-1)]: the
      indices where the input may be nonzero, in any order, duplicates
      allowed; the input must be zero everywhere else.  It overwrites
      [pat] with the result's pattern, exactly the indices of its
      nonzeros in ascending order, and returns their count; the result
      is zero (of either sign) everywhere else.

      Solves are hypersparse: they visit only the factor steps and etas
      one of whose inputs is nonzero.  Every nonzero of the result is
      bit-identical to the full sweep over all [m] steps, which a solve
      takes instead when its input, or the previous result of the same
      operation, is dense (DESIGN.md section 11). *)

  val create : ?eta_limit:int -> int -> t
  (** [create m] allocates workspaces for an [m]-row basis, all of them
      O(m) except the factor and eta arenas and the BTRAN indexes over
      them, which grow with their arena.  [eta_limit] caps the eta file
      before [needs_refactor] trips (default [max 64 (m/2)]). *)

  val copy : t -> t
  (** An independent basis in the same state: the factors, the eta
      file, the density counts of the last solves and the health
      statistics.  Solves and updates of either leave the other as it
      was. *)

  val unit_col : int -> int
  (** [unit_col row] is the [cols] entry that denotes the unit column
      of [row] in [factor]. *)

  val factor :
    t ->
    col_start:int array ->
    row_idx:int array ->
    values:float array ->
    cols:int array ->
    (int * int) list
  (** [factor t ~col_start ~row_idx ~values ~cols] factorizes the basis
      whose column at position [pos] is column [cols.(pos)] of the CSC
      matrix ([col_start], [row_idx], [values]) when that is
      nonnegative, and the unit column of [row] when it is
      [unit_col row].  Only the first [m] entries of [cols] are read.
      Columns are ordered by a static Markowitz heuristic; rows by
      threshold partial pivoting with deterministic tie-breaks.

      Positions whose column admits no acceptable pivot (a singular or
      numerically dependent basis) are patched with unit columns of the
      remaining rows; the returned list gives the [(position, row)]
      pairs that were patched — the caller must replace the basic
      variable at [position] with the slack of [row] to make the
      recorded basis match the factorization.  Empty on success. *)

  val ftran : t -> float array -> pat:int array -> nnz:int -> int
  (** [ftran t v ~pat ~nnz] solves [B x = v] in place and returns the
      result's nonzero count, its pattern in [pat].  Input is indexed by
      row, output by basis position. *)

  val btran : t -> float array -> pat:int array -> nnz:int -> int
  (** [btran t v ~pat ~nnz] solves [y^T B = v^T] in place, like
      [ftran].  Input is indexed by basis position, output by row. *)

  val btran_unit : t -> int -> float array -> pat:int array -> nnz:int -> int
  (** [btran_unit t r v ~pat ~nnz] fills [v] with row [r] of [B^-1]
      (the BTRAN of the [r]-th position unit vector), like [btran].  On
      entry [v] is zero outside [pat.(0 .. nnz-1)], for example the
      previous result; its values there are discarded. *)

  val forget_density : t -> unit
  (** Forget the nonzero counts of the previous [ftran] and [btran]
      results, which choose between the hypersparse solve and the full
      sweep: the next solves choose as on a fresh basis. *)

  val update : t -> r:int -> w:float array -> pat:int array -> nnz:int -> bool
  (** [update t ~r ~w ~pat ~nnz] appends a product-form eta replacing
      the basis column at position [r] with the column whose FTRAN image
      is [w] (dense, length [m], zero outside the ascending pattern
      [pat.(0 .. nnz-1)], as [ftran] returns it).  The eta's entries
      keep the pattern's order.  Returns [false] — leaving the
      factorization unchanged — when [|w.(r)|] is below the stability
      threshold, in which case the caller must refactorize. *)

  val eta_count : t -> int
  val eta_nnz : t -> int

  type factors = {
    f_m : int;
    f_prow : int array;  (** step -> pivot row *)
    f_qpos : int array;  (** step -> basis position *)
    f_active : int array;  (** steps with a nonempty L column, ascending *)
    f_n_active : int;
    f_l_start : int array;
    f_l_idx : int array;
    f_l_val : float array;
    f_u_start : int array;
    f_u_idx : int array;
    f_u_val : float array;
    f_u_diag : float array;
    f_e_pos : int array;
    f_e_diag : float array;
    f_e_start : int array;
    f_e_idx : int array;
    f_e_val : float array;
    f_n_eta : int;
  }
  (** The arrays of the factorization and the eta file, shared, not
      copied; valid until the next [factor] or [update]. *)

  (* test-only oracle: the kernel tests' reference sweeps solve over
     all [m] steps of these arrays, which no production caller reads *)
  val factors : t -> factors
    [@@lint.allow "u1-unused-export"]
  (** For the reference sweeps of the kernel oracle tests, which solve
      over all [m] steps; read-only. *)

  val needs_refactor : t -> bool
  (** True once the eta file is long ([eta_limit]) or has grown dense
      relative to the LU factors. *)

  (** {2 Numerical-health accessors}

      Factor-time statistics refresh on every [factor]; eta statistics
      accumulate across [update] calls since the last [factor].  All are
      O(1) reads of preallocated state (DESIGN.md section 15). *)

  val lu_growth : t -> float
  (** Element growth [max|U| / max|B|] of the last factorization; large
      values mean threshold pivoting admitted an unstable elimination. *)

  val u_diag_min : t -> float
  (** Smallest [|u_diag|] of the last factorization (0. for [m = 0]). *)

  val u_diag_max : t -> float
  (** Largest [|u_diag|] of the last factorization. *)

  val norm1 : t -> float
  (** [||B||_1] (max column abs-sum) of the last factorized basis. *)

  val eta_rejections : t -> int
  (** Updates refused for a tiny eta pivot since the last [factor]. *)

  val eta_min_diag : t -> float
  (** Smallest [|w.(r)|] accepted as an eta pivot since the last
      [factor]; [infinity] when the eta file is empty. *)

  val eta_growth : t -> float
  (** Largest [max_i |w.(i)| / |w.(r)|] over accepted etas since the
      last [factor] — pivot growth of the product-form updates. *)

  val near_singular_rows : t -> rtol:float -> (int * float) list
  (** Rows whose U pivot is below [rtol] times the largest [|u_diag|],
      as [(row, |u_diag|)] in ascending row order: the basis is within a
      relative [rtol] perturbation of singular along these rows. *)
end
