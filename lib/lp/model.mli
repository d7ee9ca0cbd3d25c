(** Linear-program builder.

    Minimisation over non-negative variables with sparse rows — all
    the generality the paper's load-balancing formulations Eq. (1) and
    Eq. (2) require.  Build a model incrementally, then {!solve} hands
    it to the {!Simplex} engine.

    {b Keys and re-solving.}  Every variable and every row carries an
    integer key that says what it means (the caller packs it; see
    [Sdm.Lp_formulation]).  {!solve_ext} returns a {!snapshot}: the
    keys of the optimal basis.  A later model — typically rebuilt from
    scratch after a change that adds or drops variables and rows —
    passes it back as [?prev]; columns and rows are matched by key,
    and whatever still exists seeds the simplex ({!Simplex.solve_ext}).
    Keys should be unique within a model; a repeated key only weakens
    the seed, never the answer, which is always one the cold path
    would also accept. *)

type t

type var
(** A variable handle, valid only for the model that created it. *)

type cmp = Le | Ge | Eq

type solution = {
  objective : float;
  values : float array; (** in variable creation order *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

type snapshot
(** The keys of an optimal solve's basic variables and of the rows
    whose slack or surplus was basic. *)

val create : unit -> t

val var : t -> int -> var
(** [var t key]: a fresh non-negative variable with key [key]. *)

val num_vars : t -> int
val num_constraints : t -> int

val keys : t -> int array * int array
(** The variables' and the rows' keys, in creation order. *)

val add_constraint : t -> key:int -> (float * var) list -> cmp -> float -> unit
(** [add_constraint t ~key terms cmp rhs] adds [Σ coef·var cmp rhs]
    under [key].  Repeated variables in [terms] are summed. *)

val set_objective : t -> (float * var) list -> unit
(** Minimised objective; variables not mentioned have cost 0. *)

val value : solution -> var -> float

val solve : t -> outcome
(** Cold solve — bit-identical to {!solve_ext} without a snapshot. *)

val solve_ext : ?prev:snapshot -> t -> outcome * Simplex.stats * snapshot option
(** Solve, reporting pivot counters and, when the outcome is
    [Optimal], the snapshot for a later solve.  With [?prev], the
    variables and rows whose keys [prev] lists as basic seed the
    simplex; [Simplex.stats.warm_used] says the seeded path answered,
    [fallback] that the cold path did. *)

val pp_outcome : Format.formatter -> outcome -> unit
