(** The paper's evaluation experiments (Sec. IV), plus ablations.

    Deployment recipe for both topologies: middleboxes WP x4, FW x7,
    IDS x7, TM x4 attached to random core routers; one policy proxy
    per edge router; candidate-set sizes FW/IDS 4, WP/TM 2.  Flows
    30k-300k with power-law sizes on [1,5000] calibrated to the
    paper's 1M-10M total packets.

    For the load-balanced strategy, the controller consumes the
    traffic matrix measured on the same workload (the paper's proxies
    measure a previous epoch; with stationary traffic the two
    coincide).

    {b Parallel evaluation.}  Every sweep expresses its cells —
    independent (controller, workload) evaluations — as thunks fanned
    out over {!Stdx.Domain_pool.map}.  The [?jobs] argument bounds the
    domains used (default {!Stdx.Domain_pool.default_jobs}); because
    results are positional, cells are pure, and per-cell seeds are
    derived order-independently ({!Stdx.Rng.derive}), reports are
    bit-identical for every [jobs] value.  Each report also carries
    the simulator events its runs processed, so harnesses can state
    real throughput.

    {b Rows as stats.}  A packet-level sweep row is its sweep key plus
    the run's whole {!Pktsim.stats}; {!Report} derives every printed
    and exported cell from those stats.

    {b Intra-run sharding.}  Orthogonally to [?jobs] (the across-cells
    axis), the [?shards] argument splits each {e individual} run's
    per-flow work across the domain pool: flow-level runs partition
    their flows by the seeded flow hash ({!Stdx.Shard}) and merge
    per-shard partial sums in fixed shard order, packet-level runs
    parallelise their pure setup phases ({!Pktsim.config.shards}).
    Reports are bit-identical for every [shards] value — see
    {!Flowsim.run} for the exactness argument.  Default 1 (the
    historical sequential path). *)

type scenario = Campus | Waxman

val scenario_name : scenario -> string

val mbox_counts : (Policy.Action.nf * int) list
(** WP 4, FW 7, IDS 7, TM 4 — Sec. IV.A. *)

val build_deployment : scenario -> seed:int -> Sdm.Deployment.t

type strategy_run = {
  strategy : string;
  controller : Sdm.Controller.t;
  result : Flowsim.result;
  lambda : float option; (** LP optimum, LB only *)
}

val run_strategies :
  deployment:Sdm.Deployment.t -> flows:int -> ?per_class:int -> ?seed:int ->
  ?rule_seed:int -> ?jobs:int -> ?shards:int -> unit -> Workload.t * strategy_run list
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
  ?jobs:int -> ?shards:int -> unit -> figure
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
  ?jobs:int -> ?shards:int -> unit -> table3

(* {2 Ablations} *)

type k_point = { k_fw_ids : int; k_wp_tm : int; lb_max_by_nf : (Policy.Action.nf * float) list }

type k_sweep = { k_points : k_point list; k_events : int }

val ablation_k :
  ?scenario:scenario -> ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int ->
  unit -> k_sweep
(** LB max loads as the candidate-set sizes grow; k=1 reproduces HP. *)

val ablation_cache : ?flows:int -> ?seed:int -> ?shards:int -> unit -> Pktsim.stats
(** Packet-level run on the campus topology quantifying Sec. III.D:
    multi-field lookups against cache hits, per injected packet. *)

val lookup_fraction : Pktsim.stats -> float
(** Multi-field lookups per injected packet; the flow cache drives
    this toward #flows/#packets. *)

type cache_size_point = {
  capacity : int option;  (** per-table flow-cache capacity; [None] = unbounded *)
  stats : Pktsim.stats;
}

val ablation_cache_size :
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> cache_size_point list
(** Sec. III.D under finite table sizes: shrink every proxy/middlebox
    flow cache and watch evictions force repeated multi-field lookups
    for long-lived flows. *)

type frag_report = {
  with_labels : Pktsim.stats;  (** label switching enabled *)
  ip_over_ip : Pktsim.stats;   (** label switching disabled *)
}

val ablation_fragmentation :
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> frag_report
(** Packet-level run quantifying Sec. III.E: extra fragments with and
    without label switching. *)

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
  ?scenario:scenario -> ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int ->
  unit -> failure_report
(** Dependability experiment: kill the most-loaded IDS middlebox and
    compare local fast failover (stale LP weights renormalised over
    the survivors) against full controller re-optimization, with
    hot-potato as the baseline.  Every packet keeps being enforced —
    the chain is never skipped. *)

type chaos_row = {
  chaos_mode : string;   (** "HP+failover", "LB+failover", "LB, no failover" *)
  chaos_delay : float;   (** detection delay; infinity on the no-failover row *)
  stats : Pktsim.stats;
}

type chaos_report = {
  chaos_victim : int;            (** the crashed middlebox (busiest IDS) *)
  chaos_victim_nf : Policy.Action.nf;
  chaos_survivors : int list;    (** the victim's peers of the same function *)
  chaos_crash_at : float;        (** crash time (the victim never recovers) *)
  chaos_link : (int * int) option; (** gateway-core link failed mid-run *)
  chaos_link_fail_at : float;
  chaos_link_restore_at : float;
  chaos_control_loss : float;    (** control-packet loss probability applied *)
  chaos_probe_events : int;      (** engine events of the fault-free probe *)
  chaos_rows : chaos_row list;
}

val ablation_chaos :
  ?flows:int -> ?seed:int -> ?audit:bool -> ?detection_delays:float list ->
  ?jobs:int -> ?shards:int -> unit -> chaos_report
(** ABL-CHAOS, the packet-level dependability experiment: one fault
    schedule — the busiest IDS box crashes at 25% of the horizon and
    never recovers, a gateway-core link fails at 45% and is restored at
    65% (OSPF reconverging live both times), and 2% of control packets
    are lost (masked by retransmission) — replayed under HP+failover
    and LB+failover for each detection delay, plus an LB row with
    failover disabled.  Violations stop once the detector flips
    (recovery time tracks the detection delay), and LB spreads the
    orphaned load across survivors where HP dumps it on the next
    closest box.  Same seed + same schedule ⇒ bit-identical report.
    Defaults: 500 flows, delays [2; 10; 40].  [audit] runs every row
    under the online invariant audit ({!Pktsim.config.audit}). *)

val audit_violations : Pktsim.stats -> int option
(** Invariant violations the online audit found; [None] when auditing
    was off for the run. *)

val max_load : Pktsim.stats -> float
(** Busiest-middlebox load of a run. *)

type live_row = {
  live_loss : float;  (** control-packet loss probability of this row *)
  stats : Pktsim.stats;
}

type live_device = {
  dev_name : string;   (** "proxyN" / "mboxN" *)
  dev_version : int;   (** installed config version at run end *)
  dev_lag : int;       (** final version minus installed *)
  dev_retries : int;   (** control retransmissions attributed to it *)
  dev_lost : int;      (** control transmissions to/from it lost *)
}

type live_report = {
  live_epoch : float;           (** epoch interval used (horizon / 5) *)
  live_reconcile : float;       (** reconcile interval used (epoch / 4) *)
  live_stale_max : float;       (** hot-potato, no live loop — the floor *)
  live_clairvoyant_max : float; (** LB on the full matrix — the target *)
  live_probe_events : int;      (** engine events of the two probe runs *)
  live_rows : live_row list;
  live_devices : live_device list; (** per-device view of the lossiest row *)
}

val ablation_live :
  ?flows:int -> ?seed:int -> ?audit:bool -> ?control_losses:float list -> ?jobs:int ->
  ?shards:int -> unit -> live_report
(** ABL-LIVE, the live-reconfiguration experiment: start every run on
    the stale hot-potato plan, enable the in-run control plane
    ({!Pktsim.config.live}) with epochs spread across the traffic
    window, and sweep the control-channel loss probability.  At every
    loss rate the measurement-driven re-optimizations walk the busiest
    middlebox's load from the hot-potato floor toward the clairvoyant
    load-balanced target; acked, retried, reconciled pushes get every
    device to the final version even under 10% loss, and version-mixing
    never produces a policy violation.  Same seed ⇒ bit-identical
    report.  Defaults: 500 flows, losses [0; 0.02; 0.10].  [audit]
    runs every row under the online invariant audit
    ({!Pktsim.config.audit}). *)

type quorum_row = {
  qr_scenario : string; (** "leader crash" / "split brain" / "quorum loss" *)
  qr_loss : float;      (** control-channel loss probability of the row *)
  stats : Pktsim.stats;
}

type quorum_report = {
  q_replicas : int;      (** replica count (3, majority quorum) *)
  q_epoch : float;       (** epoch interval used (horizon / 5) *)
  q_reconcile : float;   (** reconcile interval used (epoch / 4) *)
  q_crash_at : float;    (** leader-crash time (30% of the horizon) *)
  q_partition_at : float; (** split-brain partition time (35%) *)
  q_heal_at : float;     (** partition heal time (70%) *)
  q_leader_router : int; (** the lead replica's attachment router *)
  q_probe_events : int;  (** engine events of the fault-free probe *)
  q_rows : quorum_row list;
}

val ablation_quorum :
  ?flows:int -> ?seed:int -> ?audit:bool -> ?jobs:int -> ?shards:int -> unit -> quorum_report
(** ABL-QUORUM, the replicated-controller experiment: three replicas
    with a majority quorum run the live control plane from a stale
    hot-potato start, under three chaos scenarios — (1) the lead
    replica crashes mid-run and a standby is deterministically
    re-elected one detection delay later; (2) a split-brain partition
    isolates the leader on the minority side, whose rounds abort
    without ever publishing, until the partition heals; (3) 45%
    control-packet loss stresses the propose/vote/commit retry
    ladders.  Every published version must have passed a quorum round
    ([reoptimizations - quorum_commits] = 0 on every row), and no two replicas ever
    commit different configs for one version (the audit's
    quorum-agreement invariant).  [audit] runs every row under the
    online invariant audit.  Default 500 flows. *)

type corrupt_row = {
  cr_strategy : string;    (** "HP" / "LB" — the starting steering plan *)
  cr_rate : float;         (** corruption events per simulated time unit *)
  cr_sweep : float option; (** anti-entropy period; [None] = sweep disabled *)
  stats : Pktsim.stats;
}

type corrupt_report = {
  c_horizon : float;       (** probe-run horizon the burst is placed within *)
  c_epoch : float;         (** epoch interval used (horizon / 5) *)
  c_reconcile : float;     (** reconcile interval used (epoch / 4) *)
  c_default_sweep : float; (** the default enabled sweep period (horizon / 12) *)
  c_probe_events : int;
  c_rows : corrupt_row list;
}

val ablation_corrupt :
  ?flows:int -> ?seed:int -> ?audit:bool -> ?rates:float list ->
  ?sweep_periods:float option list -> ?jobs:int -> ?shards:int -> unit -> corrupt_report
(** ABL-CORRUPT, the silent-corruption experiment: inject a seeded,
    deterministic burst of soft-state corruptions — mis-steered and
    silently dropped label entries, poisoned flow-cache entries,
    silently lost config installs, resurrected stale entries
    ({!Fault.Schedule.corruption_events}) — into live-control-plane
    runs, and sweep corruption rate × anti-entropy period (including
    the sweep disabled) for both the HP and LB starting plans.  With
    the sweep on, every corruption that manifests is detected by a
    digest mismatch and repaired (scrubbed, re-pushed, or naturally
    overwritten) within two sweep periods — the audit's Repair
    invariant; with it off, manifested corruptions linger and
    violations accumulate.  The burst is a pure function of the seed
    and the probe horizon, so rows are comparable cell-by-cell and the
    report is bit-identical under [--jobs]/[--shards].  Defaults:
    500 flows, rates [0.1; 0.4], periods [disabled; horizon/12].
    [audit] runs every row under the online invariant audit. *)

type reopt_step = {
  rs_failed : int list;    (** failure set the chains re-optimized around *)
  rs_cold_pivots : int;    (** phase-2 pivots of the cold two-phase solve *)
  rs_warm_pivots : int;    (** phase-2 pivots of the warm-started solve *)
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_warm_used : bool;     (** the warm basis carried the solve *)
  rs_fallback : bool;      (** the warm chain fell back to the cold path *)
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
    threaded step to step).  Per step it records both pivot counts and
    both optima; the no-change steps must warm-solve in exactly zero
    pivots, and every step's optima must agree within tolerance.
    Deterministic: a pure function of (scenario, flows, seed). *)

val reopt_solve_ms :
  clock:(unit -> float) -> scenario -> ?flows:int -> ?seed:int -> unit ->
  float * float
(** Wall-clock companion of {!reopt_replay}: milliseconds per
    [Controller.reoptimize] call, cold then warm, over five replays of
    the same churn chain timed with [clock] (seconds). *)

type reopt_row = {
  rp_scenario : string;   (** "campus" / "waxman" *)
  rp_routers : int;       (** topology size (routers) *)
  rp_warm : bool;         (** this row ran with [live.warm_start] *)
  stats : Pktsim.stats;
}

type reopt_scenario_info = {
  ri_name : string;
  ri_routers : int;
  ri_epoch : float;          (** epoch interval used (horizon / 10) *)
  ri_reconcile : float;      (** reconcile interval used (epoch / 4) *)
  ri_victims : int * int;    (** (IDS box, FW box) crashed and recovered *)
  ri_crash1 : float;         (** first crash (15% of the horizon) *)
  ri_recover1 : float;       (** first recovery (35%) *)
  ri_crash2 : float;         (** second crash (45%) *)
  ri_recover2 : float;       (** second recovery (65%) *)
  ri_probe_events : int;     (** engine events of the fault-free probe *)
}

type reopt_report = {
  rp_control_loss : float;   (** control-packet loss applied to every row *)
  rp_infos : reopt_scenario_info list;
  rp_rows : reopt_row list;  (** scenario × \{cold, warm\} packet-level runs *)
  rp_replays : (string * reopt_step list) list;
      (** per-scenario controller-level differential replay *)
  rp_agree : int;            (** replay steps whose optima agree *)
  rp_total : int;            (** replay steps checked *)
}

val ablation_reopt :
  ?flows:int -> ?seed:int -> ?audit:bool -> ?jobs:int -> ?shards:int -> unit -> reopt_report
(** ABL-REOPT, the incremental re-optimization experiment: on both
    topologies, a live-control-plane run with middlebox churn — an IDS
    box crashes at 15% of the horizon and recovers at 35%, an FW box
    crashes at 45% and recovers at 65%, under 2% control loss — is
    replayed twice, identical except for {!Pktsim.live_config}'s
    [warm_start] flag.  The cold row re-solves every in-run LP from
    scratch; the warm row patches candidate sets in place and
    warm-starts each solve from the previous plan's basis, so its
    total pivot count is strictly smaller while packets, violations,
    versions and loads stay comparable (the plans are equal optima,
    not necessarily identical vertices).  A controller-level
    {!reopt_replay} rides along as the differential oracle: warm and
    cold optima must agree on every step ([rp_agree] = [rp_total]).
    Cold rows are bit-identical to runs of builds without warm-start
    support.  Defaults: 500 flows, seed 17.  [audit] runs both rows
    under the online invariant audit ({!Pktsim.config.audit}). *)

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
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> sketch_sweep
(** Count-Min measurement ablation: plan the LB weights on sketched
    traffic matrices of decreasing resolution and compare both the LP
    optimum and the realised maximum load against exact measurement. *)

type latency_report = {
  enforced : Pktsim.stats;
  plain : Pktsim.stats;  (** same traffic, empty policy table *)
}

val ablation_latency :
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> latency_report
(** Packet-level end-to-end latency with and without enforcement —
    the time cost of the middlebox detours (campus, LB strategy). *)

type queue_report = {
  service_rate : float;       (** packets per time unit per middlebox *)
  hp_util_max : float;        (** busiest-middlebox utilisation under HP *)
  lb_util_max : float;
  hp_latency_mean : float;
  hp_latency_p99 : float;
  lb_latency_mean : float;
  lb_latency_p99 : float;
  events_processed : int;  (** engine events fired, all three runs together *)
  router_hops : int;       (** hops fast-forwarded, all three runs together *)
}

val ablation_queue :
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> queue_report
(** Queueing ablation: give every middlebox a finite service rate
    (auto-calibrated so the load-balanced plan keeps the busiest box
    at ~50% utilisation) and measure end-to-end latency under HP vs
    LB.  Hot-potato's overloaded boxes show up as a latency tail —
    the user-visible cost of load imbalance. *)

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
  ?flows:int -> ?seed:int -> ?jobs:int -> ?shards:int -> unit -> lp_compare
(** Eq. (1) vs Eq. (2) on a small campus instance, compared end to end:
    LP size, optimum, *realised* max load enforcing each formulation's
    weights (Eq. (1) uses the per-(s,d) rows), and the configuration
    rows each must disseminate. *)
