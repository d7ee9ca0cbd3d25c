(** Two-phase primal simplex on a dense tableau.

    Solves  min cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0.

    Phase 1 minimises the sum of artificial variables to find a basic
    feasible solution; phase 2 optimises the real objective.  Pricing
    is Dantzig (most negative reduced cost) with a permanent switch to
    Bland's rule after a long degenerate streak, which guarantees
    termination.  The tableau is a dense float matrix: the paper's
    Eq. (2) instances stay in the low thousands of variables.  A pivot
    row is mostly zeros, though, so each pivot records the row's
    nonzero columns while scaling it and eliminates over those columns
    alone ({!pivot}).  The arithmetic on every touched entry is the
    dense update's, so the pivots and the answers are bit-identical to
    a dense pivot; only the sign of a zero entry may differ (a skipped
    [-0.0] stays [-0.0] where the dense update could write [+0.0]),
    which no comparison or division in the solver can see.

    {b Warm starting.}  An [Optimal] {!solve_ext} exports its final
    {!basis}; feeding it back through [?warm_basis] on a perturbed
    problem with the same variable count and row layout refactorises
    the fresh tableau to that basis and runs phase 2 only.  The warm
    path is conservative: any doubt — layout mismatch, singular or
    primal-infeasible imported basis, or unboundedness encountered
    from it — abandons the attempt and reruns the cold two-phase path
    ([fallback] set in {!stats}).  A warm answer is therefore always
    an optimum the cold path would also reach, and
    [Infeasible]/[Unbounded] verdicts only ever come from the cold
    path.

    This module is the raw engine; prefer the {!Model} builder. *)

type sense = Le | Ge | Eq

type result =
  | Optimal of float array (** optimal values of the structural variables *)
  | Infeasible
  | Unbounded

type basis
(** The optimal basis of a previous solve: the tableau layout
    signature (variable count, normalised row senses) plus the basic
    column of every row.  Only meaningful for a problem with the same
    row-list shape; anything else is rejected at import and the solve
    falls back to the cold path. *)

type stats = {
  pivots : int;          (** phase-2 pivots performed by this call *)
  phase1_pivots : int;
      (** phase-1 and drive-out pivots, counted apart from [pivots]:
          a cold solve's total work is the sum of the two *)
  warm_used : bool;      (** the warm basis carried the solve to optimality *)
  fallback : bool;       (** a warm basis was supplied but unusable: the
                             cold two-phase path ran instead *)
}

val pivot : float array array -> row:int -> col:int -> unit
(** [pivot a ~row ~col] pivots the tableau [a] (one array per row, all
    of one length; the last column is the right-hand side) in place on
    [a.(row).(col)]: the pivot row is divided by that entry and its
    multiples are subtracted from every other row.  This is the kernel
    every solve runs; see the preamble for what "sparse" changes.
    Raises [Invalid_argument] on rows of differing lengths.  The entry
    [a.(row).(col)] must be nonzero. *)

val solve : cost:float array -> rows:(float array * sense * float) array -> result
(** [solve ~cost ~rows]: [cost] has one entry per structural variable;
    each row is (coefficients, sense, rhs) with coefficient arrays of
    the same length.  Raises [Invalid_argument] on ragged input and
    [Failure] if the iteration cap (a defensive bound far above any
    realistic run) is hit.  Bit-identical to {!solve_ext} without a
    warm basis. *)

val solve_ext :
  ?warm_basis:basis ->
  cost:float array ->
  rows:(float array * sense * float) array ->
  unit ->
  result * stats * basis option
(** Like {!solve}, additionally returning pivot counters and — when
    the outcome is [Optimal] — the final basis for reuse.  With
    [?warm_basis], the prior basis is re-installed and only phase 2
    runs when it is still primal feasible for the perturbed problem;
    an unchanged problem re-solves in exactly 0 pivots.  Degenerate
    imports (an empty problem, a basis from a different layout, a
    basis made infeasible or whose re-solve turns unbounded) run cold
    with [fallback = true]. *)
