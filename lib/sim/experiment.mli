(** The paper's evaluation experiments (Sec. IV) and the flow-level
    ablations; the packet-level ones are data in {!Ablation}.

    Deployment recipe for both topologies: middleboxes WP x4, FW x7,
    IDS x7, TM x4 attached to random core routers; one policy proxy
    per edge router; candidate-set sizes FW/IDS 4, WP/TM 2.  Flows
    30k-300k with power-law sizes on [1,5000] calibrated to the
    paper's 1M-10M total packets.

    For the load-balanced strategy, the controller consumes the
    traffic matrix measured on the same workload (the paper's proxies
    measure a previous epoch; with stationary traffic the two
    coincide).

    {b Parallel evaluation.}  Every sweep's cells are pure thunks fanned
    out by {!fan_out} on up to [?jobs] domains, with per-cell seeds
    derived order-independently ({!Stdx.Rng.derive}), so reports are
    bit-identical for every [jobs].  Each report carries the simulator
    events its runs processed. *)

type scenario = Campus | Waxman

val scenario_name : scenario -> string

val mbox_counts : (Policy.Action.nf * int) list
(** WP 4, FW 7, IDS 7, TM 4 — Sec. IV.A. *)

val build_deployment : scenario -> seed:int -> Sdm.Deployment.t

val hot_potato : Sdm.Deployment.t -> Workload.t -> Sdm.Controller.t
val load_balanced : Sdm.Deployment.t -> Workload.t -> Sdm.Controller.t
(** On the workload's rules (and measured traffic); raise [Failure]
    if configuration fails. *)

val busiest : Mbox.Middlebox.t list -> float array -> int
(** The id of the most loaded box, the first on ties. *)

val fan_out : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Results in input order. *)

val fan_out2 : ?jobs:int -> (unit -> 'a) -> (unit -> 'a) -> 'a * 'a

val sum : ('a -> int) -> 'a list -> int

type strategy_run = {
  strategy : string;
  controller : Sdm.Controller.t;
  result : Flowsim.result;
  lambda : float option; (** LP optimum, LB only *)
}

val run_strategies :
  deployment:Sdm.Deployment.t -> flows:int -> ?per_class:int -> ?seed:int ->
  ?rule_seed:int -> ?jobs:int -> unit -> Workload.t * strategy_run list
(** One workload, all three strategies on it ([?jobs] fans the three
    out).  [rule_seed] (default [seed]) pins the policy set
    independently of the flow population, which the figure sweeps use
    to scale volume under fixed policies. *)

(* {2 Figures 4 and 5} *)

type point = {
  flows : int;
  total_packets : int;
  (* max_loads.(nf) in HP, Rand, LB order *)
  max_loads : (Policy.Action.nf * (float * float * float)) list;
}

type figure = {
  scenario : scenario;
  points : point list;
  fig_events : int;  (** flow-level events across every cell and strategy *)
}

val default_flow_counts : int list
(** 30k .. 300k in steps of 30k. *)

val run_figure :
  scenario -> ?flow_counts:int list -> ?per_class:int -> ?seed:int ->
  ?jobs:int -> unit -> figure
(** One cell per flow-volume point, fanned out over [?jobs] domains.
    Each cell's flow population is seeded from
    [Stdx.Rng.derive root i], so the figure is a function of the root
    seed alone, not of evaluation order. *)

(* {2 Table III} *)

type table3_row = {
  nf : Policy.Action.nf;
  hp_max : float;
  hp_min : float;
  rand_max : float;
  rand_min : float;
  lb_max : float;
  lb_min : float;
}

type table3 = {
  t3_rows : table3_row list;
  t3_events : int;  (** flow-level events across the three strategy runs *)
}

val run_table3 :
  ?scenario:scenario -> ?flows:int -> ?per_class:int -> ?seed:int ->
  ?jobs:int -> unit -> table3

(* {2 Flow-level ablations} *)

type k_point = { k_fw_ids : int; k_wp_tm : int; lb_max_by_nf : (Policy.Action.nf * float) list }

type k_sweep = { k_points : k_point list; k_events : int }

val ablation_k :
  ?scenario:scenario -> ?flows:int -> ?seed:int -> ?jobs:int ->
  unit -> k_sweep
(** LB max loads as the candidate-set sizes grow; k=1 reproduces HP. *)

type failure_report = {
  failed_mbox : int;                  (** the killed middlebox (most-loaded IDS) *)
  failed_nf : Policy.Action.nf;
  before_max : float;                 (** max load of that type before failure *)
  failover_max : float;               (** local fast failover, stale weights *)
  reoptimized_max : float;            (** controller re-ran candidates + LP *)
  reoptimized_lambda : float;
  hp_failover_max : float;            (** hot-potato under the same failure *)
  survivors : int;                    (** remaining boxes of that type *)
  fail_events : int;                  (** flow-level events, all four runs *)
}

val ablation_failure :
  ?scenario:scenario -> ?flows:int -> ?seed:int -> ?jobs:int ->
  unit -> failure_report
(** Dependability experiment: kill the most-loaded IDS middlebox and
    compare local fast failover (stale LP weights renormalised over
    the survivors) against full controller re-optimization, with
    hot-potato as the baseline.  Every packet keeps being enforced —
    the chain is never skipped. *)

type reopt_step = {
  rs_failed : int list;    (** failure set the chains re-optimized around *)
  rs_cold_pivots : int;    (** phase-2 pivots of the cold two-phase solve *)
  rs_cold_phase1 : int;    (** its phase-1 and drive-out pivots *)
  rs_warm_pivots : int;    (** phase-2 pivots of the warm-started solve *)
  rs_warm_phase1 : int;
      (** its phase-1 and drive-out pivots (install and repair pivots
          are a refactorisation and are not counted) *)
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_seed : int list option;
      (** the failure set whose memo entry seeded the warm solve
          ({!Sdm.Controller.seed_of}); [None] for the previous plan's
          basis *)
  rs_warm_used : bool;     (** a keyed previous basis seeded the solve *)
  rs_fallback : bool;      (** a snapshot was offered but the cold path answered *)
  rs_agree : bool;
      (** |λ_warm − λ_cold| ≤ 1e-6·max(1, |λ_cold|) — the differential
          oracle CI checks on every step *)
}

val reopt_replay :
  scenario -> ?flows:int -> ?seed:int -> unit -> reopt_step list
(** Controller-level churn replay, the differential core of ABL-REOPT:
    starting from one load-balanced configuration, two chains
    re-optimize through the same failure-set sequence — no change, one
    crash, a second concurrent crash, staged recovery, and a final
    no-change step — one chain cold ([use_warm:false]) and one
    incremental ([use_warm:true], candidate patching + LP basis reuse
    threaded step to step).  Per step it records both chains' phase-1
    and phase-2 pivot counts, both optima and the warm step's seed; the
    no-change steps must warm-solve in exactly zero pivots, and every
    step's optima must agree within tolerance.
    Deterministic: a pure function of (scenario, flows, seed). *)

val reopt_solve_ms :
  clock:(unit -> float) -> scenario -> ?flows:int -> ?seed:int -> unit ->
  float * float
(** Wall-clock companion of {!reopt_replay}: milliseconds per
    [Controller.reoptimize] call, cold then warm, over five replays of
    the same churn chain timed with [clock] (seconds). *)

val churn_victims : Sdm.Deployment.t -> int * int
(** The first IDS and the first FW box: the churn chains' victims. *)

type sketch_point = {
  epsilon : float;
  sketch_cells : int;       (** counters across all proxy sketches *)
  exact_cells : int;        (** non-zero (s,d,p) cells in the exact matrix *)
  exact_lambda : float;
  sketched_lambda : float;  (** LP optimum planned on sketched volumes *)
  exact_realized_max : float;   (** realised max load, exact-planned weights *)
  sketched_realized_max : float;
}

type sketch_sweep = { sk_points : sketch_point list; sk_events : int }

val ablation_sketch :
  ?flows:int -> ?seed:int -> ?jobs:int -> unit -> sketch_sweep
(** Count-Min measurement ablation: plan the LB weights on sketched
    traffic matrices of decreasing resolution and compare both the LP
    optimum and the realised maximum load against exact measurement. *)

type lp_side = {
  lp_lambda : float;
  lp_vars : int;
  lp_constraints : int;
  lp_realized : float;     (** realised max load enforcing the plan's weights *)
  lp_weight_rows : int;    (** weight rows the plan disseminates *)
}

type lp_compare = {
  exact : lp_side;       (** Eq. (1): per-(s,d) rows *)
  simplified : lp_side;  (** Eq. (2) *)
  lp_events : int;       (** flow-level events, both realisation runs *)
}

val ablation_lp :
  ?flows:int -> ?seed:int -> ?jobs:int -> unit -> lp_compare
(** Eq. (1) vs Eq. (2) on a small campus instance, compared end to end:
    LP size, optimum, *realised* max load enforcing each formulation's
    weights (Eq. (1) uses the per-(s,d) rows), and the configuration
    rows each must disseminate. *)
