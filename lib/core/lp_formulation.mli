(** The load-balancing linear programs (Sec. III.C).

    Both formulations minimise the largest load factor λ subject to
    flow conservation through every policy's middlebox chain and
    per-middlebox capacity λ·C(x):

    - {!solve_simplified} is Eq. (2): variables t_{e,p}(x,y) aggregate
      traffic over sources and destinations, keeping the variable count
      (and the controller→middlebox configuration volume) small.  This
      is the formulation the evaluation runs.
    - {!solve_exact} is Eq. (1): variables t_{s,d,p}(x,y) keep
      per-source/destination resolution.  Exponentially more variables;
      used on small instances and in the formulation-comparison
      ablation.

    Implementation notes, documented in DESIGN.md: (a) exit variables
    are aggregated over destinations — which destination a last-hop
    middlebox forwards to never affects any middlebox load, so this is
    exact; (b) with [group_sources] (default), proxies with identical
    candidate-set fingerprints are aggregated into one LP source, which
    is load-exact because their entry constraints can be split back
    proportionally; it shrinks the Waxman-scale LPs by ~16x; (c) chains
    are walked positionally, so a function may not repeat within one
    action list (the paper's I_p(e,e') indicator has the same
    restriction); (d) capacities default to 1.0 and no λ ≤ 1 row is
    added unless [lambda_cap] is given, making λ read directly as the
    maximum per-middlebox volume. *)

type result = {
  lambda : float;          (** optimal largest load factor *)
  weights : Weights.t;     (** per-entity forwarding weights (aggregated) *)
  weights_sd : Weights_sd.t option;
      (** Eq. (1) only: the per-(source, destination) t_{s,d,p}(x,y)
          rows, the resolution the exact formulation pays for *)
  loads : float array;     (** predicted volume per middlebox id *)
  lp_vars : int;           (** LP size, for the formulation ablation *)
  lp_constraints : int;
  lp_pivots : int;         (** phase-2 simplex pivots this solve performed *)
  lp_phase1_pivots : int;
      (** phase-1 and drive-out pivots, counted apart from [lp_pivots];
          the install and repair pivots of a warm start are a
          refactorisation and are counted in neither *)
  lp_warm_used : bool;     (** a keyed previous basis seeded the solve *)
  lp_fallback : bool;      (** a snapshot was offered but the cold path
                               answered *)
  lp_snapshot : Lp.Model.snapshot option;
      (** the keys of the solve's optimal basis, to pass as [?warm] next
          time *)
}

val simplified_model :
  Candidate.t ->
  rules:Policy.Rule.t list ->
  traffic:Measurement.t ->
  ?group_sources:bool ->
  ?lambda_cap:float ->
  unit ->
  (Lp.Model.t, string) Stdlib.result
(** The Eq. (2) model {!solve_simplified} solves, built and not solved:
    every variable and row carries a key packing what it means (kind,
    rule id, stage, upstream entity, box), which is how a [?warm]
    snapshot finds its basis again in a model rebuilt after a
    failure. *)

val solve_simplified :
  Candidate.t ->
  rules:Policy.Rule.t list ->
  traffic:Measurement.t ->
  ?group_sources:bool ->
  ?lambda_cap:float ->
  ?warm:Lp.Model.snapshot ->
  unit ->
  (result, string) Stdlib.result

val solve_exact :
  Candidate.t ->
  rules:Policy.Rule.t list ->
  traffic:Measurement.t ->
  ?lambda_cap:float ->
  ?warm:Lp.Model.snapshot ->
  unit ->
  (result, string) Stdlib.result
(** Returns both the per-(s,d) rows ([weights_sd]) for faithful Eq. (1)
    enforcement and their aggregation over sources and destinations
    ([weights]) as the fallback for unmeasured pairs. *)
