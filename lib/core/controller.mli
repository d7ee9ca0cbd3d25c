(** The middlebox controller (Sec. III.A-III.C).

    Pre-configures every policy proxy and middlebox: computes the
    candidate sets [M_x^e], distributes to each entity its relevant
    policy subset [P_x], and — for load-balanced enforcement — solves
    the Eq. (2) LP over the measured traffic matrix and distributes
    the resulting forwarding weights.  The controller never sees a
    packet; everything here happens at configuration time, which is
    the architectural difference from SDN controllers the paper
    stresses. *)

type kind =
  | Hot_potato
  | Random_uniform
  | Load_balanced of Measurement.t
      (** Eq. (2): aggregated weights from a measured traffic matrix *)
  | Load_balanced_exact of Measurement.t
      (** Eq. (1): per-(source, destination) weights — exponentially
          more configuration state for (at best) marginally better
          balance; provided for the formulation comparison *)

type t = {
  deployment : Deployment.t;
  candidates : Candidate.t;
  rules : Policy.Rule.t list;     (** the network-wide ordered policy list *)
  strategy : Strategy.t;
  lp : Lp_formulation.result option;  (** present for load-balanced *)
  k : Policy.Action.nf -> int;    (** candidate-set sizing, kept for updates *)
  memo : (int list * Lp.Model.snapshot) list;
      (** the basis memo: for each failure set this controller's line
          has solved an LP under (sorted, without repeats), the
          snapshot of its latest optimal basis, most recent first and
          one entry per set.  [configure] starts it with its own LP's
          basis (empty for [Hot_potato] and [Random_uniform]); a warm
          {!reoptimize} adds or replaces its failure set's entry after
          every solve.  Immutable and per value: a versioned
          configuration keeps the memo it was solved with. *)
}

val default_k : Policy.Action.nf -> int
(** The evaluation's candidate-set sizes: FW 4, IDS 4, WP 2, TM 2
    (and 2 for custom functions). *)

val configure :
  Deployment.t ->
  rules:Policy.Rule.t list ->
  ?k:(Policy.Action.nf -> int) ->
  ?failed:int list ->
  kind ->
  (t, string) Stdlib.result
(** Validates that every function referenced by a rule is implemented
    by some middlebox; for [Load_balanced] solves the LP (source
    grouping on).  [failed] middleboxes are excluded from every
    candidate set — calling [configure] again with the current failure
    list is the controller's re-optimization step after failures are
    reported. *)

val reoptimize :
  t -> ?failed:int list -> ?use_warm:bool -> traffic:Measurement.t -> unit ->
  (t, string) Stdlib.result
(** In-run re-optimization: rebuild the configuration over the same
    deployment, rules, and candidate sizing, excluding the [failed]
    middleboxes and re-solving the LP against [traffic] (the volumes
    measured since the run began).  A [Load_balanced_exact] controller
    re-solves the exact formulation; every other strategy re-optimizes
    to the aggregated [Load_balanced] plan — measurements exist to be
    used.  An empty measurement is legal and yields weight-less rows
    (closest-live behavior) until traffic accrues.

    [use_warm] (default false) makes the step incremental: candidate
    sets are patched from the previous configuration's ranked lists
    ({!Candidate.with_excluded} — equal to a rebuild) and the LP
    warm-starts from the basis {!seed_of} picks out of the memo (the
    previous plan's when it picks none): its variables and rows are
    matched by key in the rebuilt LP, so a failure or recovery costs
    the pivots the change needs, not a cold solve, and a return to a
    failure set already solved under unchanged traffic costs none.
    The solve's basis then enters the memo.  The cold
    two-phase solve answers only if the seeded one ends infeasible or
    unbounded.  The result is always an optimum the cold path would
    also reach;
    with the flag off the cold code path runs unchanged,
    bit-identically to builds without warm-start support.  The pivot
    and fallback counters of the solve land in the result's
    [lp] field ({!Lp_formulation.result}). *)

val seed_of : t -> failed:int list -> int list option
(** The failure set whose memo entry a warm [reoptimize ~failed]
    seeds from: the largest one contained in [failed] (in any order),
    the most recently solved on a tie.  [None] when no entry fits; the
    seed is then the current plan's basis.  A crash, or a re-plan
    under the current failure set, picks the current plan's own entry
    unless a larger fitting one exists; a recovery picks an earlier,
    smaller set that still holds the recovered box, which is why a
    recovery costs about what a crash costs.  Pure. *)

val policy_table_for : t -> Mbox.Entity.t -> Policy.Rule.t list
(** The subset [P_x] the controller sends to entity [x]: for a proxy,
    rules whose descriptor can match traffic sourced in its subnet;
    for a middlebox, rules whose action list contains its function. *)

val next_hop_result :
  ?alive:(int -> bool) ->
  t -> Mbox.Entity.t -> rule:Policy.Rule.t -> nf:Policy.Action.nf ->
  Netpkt.Flow.t -> (Mbox.Middlebox.t, [ `No_live_candidate ]) Stdlib.result
(** [alive] enables local fast failover before the controller has
    re-configured; [Error `No_live_candidate] when the whole candidate
    set is dead.  See {!Strategy.next_hop_result}. *)

val next_hop :
  ?alive:(int -> bool) ->
  t -> Mbox.Entity.t -> rule:Policy.Rule.t -> nf:Policy.Action.nf ->
  Netpkt.Flow.t -> Mbox.Middlebox.t
(** Raising variant of {!next_hop_result}; see {!Strategy.next_hop}. *)

val closest : t -> Mbox.Entity.t -> Policy.Action.nf -> Mbox.Middlebox.t
(** The hot-potato target [m_x^e], whatever the active strategy. *)

type config_summary = {
  entities : int;           (** proxies + middleboxes configured *)
  policy_rows : int;        (** Σ_x |P_x| — policy-table rows pushed *)
  candidate_entries : int;  (** Σ_x Σ_e |M_x^e| — candidate-set members pushed *)
  weight_rows : int;        (** LB only: t_{e,p}(x, ·) rows pushed *)
  weight_cells : int;       (** LB only: individual t_{e,p}(x,y) values *)
}

val config_summary : t -> config_summary
(** Size of the configuration the controller disseminates — the
    communication-overhead metric behind the paper's preference for
    the aggregated Eq. (2) variables. *)

val fingerprint : t -> int64
(** Deterministic structural digest of the configuration: strategy
    kind, dissemination summary, rule ids, and (for load-balanced
    plans) the LP objective and predicted loads, FNV-1a folded.  Equal
    configurations hash equally in any process or domain — this is the
    digest the replicated control plane proposes, accepts, and commits
    under, and the value the audit uses to flag divergent commits. *)

type update_delta = {
  controller : t;            (** the reconfigured controller *)
  entities_touched : int;    (** entities whose policy table changed *)
  rows_added : int;          (** policy rows pushed by the update *)
  rows_removed : int;        (** policy rows withdrawn *)
}

val update_rules : t -> rules:Policy.Rule.t list -> kind -> (update_delta, string) Stdlib.result
(** Replace the network-wide policy list: reconfigure (same deployment
    and candidate sizing) and report the incremental dissemination —
    only entities whose [P_x] changed need a push, which is what keeps
    policy updates cheap in this architecture. *)
