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
    {!basis} in layout-free terms: the basic structural columns and the
    rows whose slack is basic.  A later problem — same layout or not;
    {!Model} maps the basis across a rebuild by key — passes it as
    [?start].  The start path installs the rows' slacks, then pivots
    each suggested column at the unassigned row with the largest
    entry, skipping columns with no usable entry.  Each row left with
    a negative value gets a repair artificial (a spare column set to
    -1 in that row only, pivoted in).  Phase 1 then runs over every
    artificial, followed by drive-out and phase 2.  Install and repair
    pivots are a refactorisation and are not counted; an unchanged
    problem re-solves in 0 pivots.  A seeded solve that ends
    [Infeasible] or [Unbounded] is abandoned and the cold two-phase
    path answers ([fallback] set in {!stats}), so those verdicts only
    ever come from the cold path.  Without [?start] the cold path runs
    alone, bit-identical to {!solve}.

    This module is the raw engine; prefer the {!Model} builder. *)

type sense = Le | Ge | Eq

type result =
  | Optimal of float array (** optimal values of the structural variables *)
  | Infeasible
  | Unbounded

type basis = {
  cols : int array;        (** basic structural columns, ascending *)
  slack_rows : int array;  (** rows whose slack or surplus is basic, ascending *)
}
(** An optimal basis, or a suggested one: indices out of range are
    ignored on import. *)

type stats = {
  pivots : int;          (** phase-2 pivots performed by this call *)
  phase1_pivots : int;
      (** phase-1 and drive-out pivots, counted apart from [pivots]:
          a cold solve's total work is the sum of the two *)
  warm_used : bool;      (** a start basis seeded the solve *)
  fallback : bool;       (** a start basis was offered but the cold
                             two-phase path answered *)
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
    start basis. *)

val solve_ext :
  ?start:basis ->
  cost:float array ->
  rows:(float array * sense * float) array ->
  unit ->
  result * stats * basis option
(** Like {!solve}, additionally returning pivot counters and — when
    the outcome is [Optimal] — the final basis for reuse.  With
    [?start], the seeded path of the preamble runs first and the cold
    path only when it ends [Infeasible] or [Unbounded]. *)
