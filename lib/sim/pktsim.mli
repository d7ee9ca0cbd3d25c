(** Packet-level network simulator on the discrete-event engine.

    The faithful (and slower) counterpart of {!Flowsim}: every packet
    of every flow is injected at its source proxy, classified against
    the proxy's policy table (flow cache first, Sec. III.D), tunnelled
    IP-over-IP middlebox to middlebox, optionally upgraded to label
    switching after the chain's last middlebox confirms (Sec. III.E),
    and routed through the routers' OSPF tables, which know nothing
    about policies.

    Router transit is {e hop fast-forwarded}: between two policy
    decision points (proxy, middlebox, destination subnet) forwarding
    is deterministic under fixed tables, so the simulator walks the
    per-hop tables inline and schedules a single event per path
    segment instead of one per router hop.  Hop and fragment counters,
    ECMP hash choices, and every timestamp are identical to per-hop
    execution; only {!stats.events_processed} shrinks.  Per-event
    fidelity is kept exactly where state evolves over time — middlebox
    FIFO queueing, label/cache soft-state expiry.

    Used by integration tests (per-middlebox loads must equal
    {!Flowsim.run}'s), by the cache and fragmentation ablations, and
    by the label-switching example.  Keep workloads at packet-level
    scale (≤ ~100k packets); the figure-scale experiments use
    {!Flowsim}. *)

type table_source =
  | Oracle           (** global Dijkstra (default) *)
  | Distributed_ospf (** tables from link-state flooding ([Ospf.Protocol]) *)
  | Distributed_dvr  (** tables from distance-vector exchange ([Dvr.Protocol]) *)

(** Which software classifier backs the per-entity policy tables.  All
    three implement identical first-match (lowest rule id) semantics —
    property tests enforce the equivalence — so every statistic of a
    run is invariant to this knob; only classification cost differs,
    which is what the classifier benchmark measures. *)
type classifier =
  | Trie     (** hierarchical source/destination prefix trie (default) *)
  | Dectree  (** HiCuts-style decision tree ({!Policy.Dectree}) *)
  | Linear   (** linear scan of the rule list — the small-table baseline *)

(** Live control plane (Sec. III.A-III.C run in-line).

    When {!config.live} is set, the controller becomes a simulated
    entity at an attachment router: at epoch boundaries it re-solves
    the placement from the traffic volumes measured since the run
    began, and one detection delay after every middlebox transition it
    re-optimizes around the believed-failed set.  Each published
    configuration carries a monotonically increasing {e version} and
    is pushed hop-by-hop to every proxy and middlebox over the lossy
    control channel, with per-device acknowledgement and
    exponential-backoff retries, a periodic reconciliation loop that
    re-pushes to devices stuck on stale versions, and graceful
    degradation to the last-known-good configuration when the
    controller is partitioned from a device or the new configuration
    fails verification.

    Mixed-version safety: a new version is published only after
    {!Sdm.Verify.check_window} certifies every reachable mix of the
    two adjacent versions.  Devices stage at most {installed-1,
    installed}; flows stay sticky to the version that admitted them
    (clamped into the staged window), and label-table entries more
    than one version old are purged on install, so an in-flight flow
    crossing an update boundary re-establishes its path instead of
    stranding.

    Replication ([replicas > 1]): the controller becomes [replicas]
    replicas at distinct attachment routers (replica 0 at
    [controller_router]); the lowest-id live replica leads.  Every
    candidate configuration runs a two-phase {!Quorum} round over the
    same lossy control channel — propose out, votes back, each leg
    with the capped-backoff retry ladder — and is published only once
    a quorum accepted it.  A leader crash triggers a deterministic
    re-election one detection delay later; a minority-side partition
    abandons its round and degrades to last-known-good without ever
    publishing.  [replicas = 1] (the default) commits synchronously
    with zero quorum traffic and is bit-identical to the
    pre-replication control plane. *)
type live_config = {
  epoch_interval : float;
      (** period of measurement-driven re-optimizations (default 25.0);
          epochs are scheduled across the traffic window *)
  reconcile_interval : float;
      (** period of the re-push loop for stale devices (default 5.0) *)
  push_backoff : float;
      (** initial retry delay of a config push; doubles per attempt
          (default 2.0) *)
  push_backoff_cap : float;
      (** ceiling on the exponential retry delay, shared by every
          control-plane chain (pushes, proposals, commit notices).
          Must be at least [push_backoff]; [infinity] leaves the
          ladder uncapped.  Default 120.0 — above the last rung of the
          default ladder, so defaults never clip. *)
  push_max_retries : int;
      (** retries per push chain before the reconciliation loop
          becomes the backstop (default 6) *)
  controller_router : int option;
      (** attachment router; default first gateway, else first core
          (same convention as {!Controlplane.price}) *)
  replicas : int;
      (** controller replicas (default 1 = the unreplicated control
          plane) *)
  quorum : Quorum.family;
      (** what counts as a quorum of the replicas (default
          {!Quorum.Majority}) *)
  replica_routers : int list option;
      (** attachment router per replica; default
          {!Controlplane.replica_routers} placement from the
          controller's router.  Must list [replicas] distinct
          routers. *)
  sweep_period : float option;
      (** anti-entropy period: every [p] time units the live leader
          digest-audits each device's soft state over the lossy
          control channel — a digest query triggers a local scrub of
          silently corrupted entries, and the version report exposes
          silently lost config installs (which the ack-driven
          reconciliation loop cannot see) for a targeted re-push.
          [None] (the default) disables the sweep entirely: no events,
          no loss draws, bit-identical to a build without it.  The
          sweep bounds corruption repair at [2 * sweep_period]
          (one period to be visited, one for the retry ladder) — the
          deadline the audit's Repair invariant enforces. *)
  warm_start : bool;
      (** thread the previous plan's simplex basis through every
          in-run re-optimization: candidate sets are patched from the
          ranked lists instead of recomputed, and the LP re-runs phase
          2 only when its layout held ({!Sdm.Controller.reoptimize}
          with [use_warm]).  Warm plans are optima the cold path would
          also reach; only the pivot counters change.  [false] (the
          default) runs the cold path, bit-identical to builds without
          warm-start support. *)
}

val default_live : live_config

val push_backoff_delay : live_config -> attempt:int -> float
(** The retry ladder every control-plane chain climbs:
    [min (push_backoff * 2^attempt) push_backoff_cap]. *)

type config = {
  label_switching : bool; (** default true *)
  mtu : int;              (** default 1500 *)
  link_delay : float;     (** per hop, default 0.1 *)
  packet_interval : float;(** spacing within a flow, default 1.0 *)
  start_window : float;   (** flow start times uniform in [0, w), default 50. *)
  cache_timeout : float;  (** flow-cache soft-state timeout, default 1e9 *)
  seed : int;             (** start-time jitter seed, default 99 *)
  table_source : table_source;
      (** where the routers' forwarding tables come from.  Middlebox
          loads are invariant to this (enforcement decisions do not
          depend on routes); only paths/latencies can differ on
          equal-cost ties. *)
  classifier : classifier;
      (** which software classifier backs the proxy/middlebox policy
          tables.  Match semantics are identical across all three, so
          every statistic is invariant; default [Trie]. *)
  service_rate : float;
      (** middlebox processing capacity in packets per time unit;
          packets queue FIFO and wait when a box is busy, so an
          overloaded middlebox shows up as latency.  Default
          [infinity] = processing is instantaneous (the load-counting
          semantics of the figures). *)
  label_timeout : float;
      (** soft-state timeout of middlebox label tables.  When an entry
          expires mid-flow, the packet that hits the stale path is
          lost (its original destination is unknown downstream), a
          teardown notification travels back to the proxy, and the
          flow falls back to IP-over-IP until re-established.  Default
          [infinity]. *)
  wp_cache_hit_ratio : float;
      (** Figure 3's web-proxy semantics: this fraction of flows (a
          per-flow sticky draw) find their page cached at the WP, which
          answers directly — the packet skips the rest of the chain and
          the origin server.  Default 0.0 (WP is a pure pass-through,
          the evaluation's setting). *)
  cache_capacity : int option;
      (** bound on every proxy/middlebox flow cache (hardware hash
          tables are finite); LRU eviction past the bound.  Default
          unbounded. *)
  ecmp : bool;
      (** equal-cost multipath: routers hash flows over every
          shortest-path next hop instead of the single deterministic
          one.  Overrides [table_source] (ECMP sets come from the
          global oracle).  Middlebox loads are invariant; only paths
          vary.  Default false. *)
  faults : Fault.Schedule.t option;
      (** in-run fault injection: middlebox crash/recovery, link
          fail/restore (routing then reconverges through a live
          {!Ospf.Session} mid-run), controller-replica crash/recovery
          (replicated live control plane), per-link data-packet loss,
          and control-packet loss.  [None] (the default) leaves every
          fault path disabled — no detector, no loss RNG — so a
          fault-free run is bit-identical to one on a build without
          this machinery. *)
  detection_delay : float;
      (** how long after a crash/recovery the failure detector's view
          flips — the heartbeat timeout.  During the window after a
          crash, traffic is still steered into the dead box and lost;
          after it, local fast failover (Sec. III.D) routes around.
          Default 10.0. *)
  failover : bool;
      (** when false, entities ignore the failure detector and keep
          using the static configuration — the "no failover" baseline
          of ABL-CHAOS.  Default true. *)
  ctrl_retry_timeout : float;
      (** retransmission timer for label-establishment / teardown
          control packets lost to [control_loss].  Default 5.0. *)
  ctrl_max_retries : int;
      (** retransmissions after the initial attempt before the sender
          gives up (receivers are idempotent).  Default 3. *)
  live : live_config option;
      (** in-run reconfiguration.  [None] (the default) keeps the
          configuration static for the whole run — bit-identical to a
          build without the live control plane. *)
  audit : bool;
      (** online invariant auditing ({!Audit.Checker}): the run emits
          a structured event per admission, steering decision,
          enforcement, terminal fate and table mutation, and
          {!stats.audit_report} carries the checked result.  Emission
          is a pure side-channel — no randomness, no scheduled work —
          so every other statistic is bit-identical to an unaudited
          run.  Default false. *)
  debug_bypass_chain : int option;
      (** test-only corruption hook: [Some n] makes every n-th
          admitted packet of an enforced flow skip its middlebox chain
          and travel straight to the destination — the escape the
          audit's chain invariant exists to catch.  Default [None]
          (never set this outside tests). *)
  shards : int;
      (** parallelism for the shardable setup phases — the per-entity
          policy-trie builds and (under the [Oracle] substrate) the
          per-source routing tables, all pure functions of the
          immutable controller and topology, evaluated on the domain
          pool when [shards > 1].  The event loop itself is a
          sequential discrete-event simulation and is not sharded, so
          every statistic is bit-identical for every value (positional
          {!Stdx.Domain_pool.map} results).  Default 1. *)
}

val default_config : config

type stats = {
  loads : float array;            (** packets processed per middlebox id *)
  injected_packets : int;
  delivered_packets : int;
  dropped_packets : int;          (** TTL expiry / lookup failure; expect 0 *)
  control_packets : int;          (** label-switching confirmations *)
  multi_field_lookups : int;      (** policy-table lookups at proxies+middleboxes *)
  cache_hits : int;
  cache_negative_hits : int;
  tunneled_packets : int;         (** tunnel legs traversed IP-over-IP *)
  label_switched_packets : int;   (** legs traversed by label switching *)
  fragments_created : int;        (** extra fragments beyond original packets *)
  router_hops : int;
  sim_time : float;
  latency_mean : float;           (** end-to-end delivery latency; 0.0 if none *)
  latency_p50 : float;
  latency_p99 : float;
  label_misses : int;    (** label-switched packets that hit an expired entry *)
  teardowns : int;       (** teardown notifications delivered to proxies *)
  wp_cache_served : int; (** packets answered from a web proxy's cache *)
  cache_evictions : int; (** capacity-forced flow-cache evictions, all nodes *)
  events_scheduled : int;
      (** engine events created over the run — with hop fast-forwarding
          this stays well below one per router hop *)
  events_processed : int; (** engine events fired over the run *)
  policy_violations : int;
      (** packets of enforced flows that escaped their chain: steered
          into a crashed middlebox, or dropped because every candidate
          for some function was believed dead.  0 without faults. *)
  fault_dropped : int;
      (** packets lost to injected faults (dead-box arrivals plus
          per-link loss); a subset of [dropped_packets] *)
  control_retries : int;
      (** control-packet retransmissions triggered by [control_loss] *)
  control_lost : int; (** control-packet transmissions lost to faults *)
  last_violation_time : float;
      (** simulated time of the last policy violation (0.0 if none) —
          [last_violation_time - crash time] is ABL-CHAOS's recovery
          time *)
  (* Live control plane — all zero (and all-zero arrays) when
     [config.live = None]. *)
  config_pushes : int;
      (** config-push transmissions sent, retries included *)
  config_acks : int;  (** install acknowledgements the controller received *)
  config_lost : int;  (** config/ack transmissions lost to [control_loss] *)
  config_bytes : int;
      (** configuration bytes put on the wire ({!Controlplane}'s byte
          model, priced per transmission) *)
  reoptimizations : int; (** configuration versions published *)
  config_degraded : int;
      (** degradations to last-known-good: re-optimizations vetoed by
          the verifier or the LP, and pushes skipped because the
          controller was partitioned from the device *)
  final_config_version : int; (** highest version published *)
  stale_devices : int;
      (** devices still below the final version when the run ended *)
  entity_control_retries : int array;
      (** per-device control retransmissions (proxies first, then
          middleboxes): label control attributed to the sending
          middlebox, config pushes to the target device *)
  entity_control_lost : int array;
      (** per-device control transmissions lost, same attribution *)
  entity_config_version : int array;
      (** per-device installed version at run end — the lag behind
          [final_config_version] attributes update stalls *)
  (* Replicated control plane — with [replicas = 1] the round counters
     still tick (the single replica plays a one-acceptor quorum and
     commits synchronously) but no quorum message ever hits the wire,
     so [quorum_msgs], [quorum_lost] and [leader_changes] stay 0. *)
  quorum_rounds : int;  (** propose/accept/commit rounds started *)
  quorum_commits : int; (** rounds that reached quorum and committed *)
  quorum_aborts : int;
      (** rounds abandoned: quorum unreachable (partition, crashes,
          retries exhausted) or superseded by a fresher candidate *)
  quorum_msgs : int;
      (** proposal / vote / commit-notice transmissions, retries
          included *)
  quorum_lost : int; (** of those, lost to the control channel *)
  leader_changes : int; (** deterministic re-elections after leader crashes *)
  replica_versions : int array;
      (** per-replica highest committed version at run end (empty when
          [live = None]) — divergence from [final_config_version]
          shows which replicas a partition left behind *)
  (* Silent state corruption and anti-entropy repair.  All zero unless
     the fault schedule carries corruption events (injection counters)
     or [live.sweep_period] is set (sweep counters). *)
  corruptions_injected : int;
      (** corruption events that actually mutated state (an event
          aimed at an empty table, a crashed box, or a version-0
          device no-ops and is not counted) *)
  corruptions_manifested : int;
      (** injected corruptions whose state influenced the data plane
          at least once before repair (mis-steered / bypassed packets,
          lost-entry drops, regressed-weight decisions) *)
  corruptions_detected : int;
      (** digest mismatches the sweep found (one per device visit that
          scrubbed) *)
  corruptions_repaired : int;
      (** injected corruptions retired: scrub-purged, naturally
          overwritten/rebased, crash-wiped, or config re-installed *)
  sweep_rounds : int; (** anti-entropy rounds the live leader ran *)
  sweep_msgs : int;   (** sweep queries + reports sent, retries included *)
  sweep_lost : int;   (** of those, lost to the control channel *)
  sweep_bytes : int;  (** sweep wire overhead — the repair-traffic cost *)
  repair_window_mean : float;
      (** mean inject-to-repair time over repaired corruptions (0 when
          none) *)
  repair_window_max : float; (** worst inject-to-repair window *)
  reopt_pivots : int;
      (** phase-2 simplex pivots across every in-run re-optimization (0 when
          [live = None]) *)
  reopt_phase1_pivots : int;
      (** phase-1 and drive-out pivots across the same re-solves,
          counted apart from [reopt_pivots] — cold-path work a
          successful warm start skips entirely *)
  reopt_warm_used : int;
      (** re-solves the previous basis carried to optimality (0 unless
          [live.warm_start]) *)
  reopt_fallback : int;
      (** warm attempts that fell back to the cold two-phase path *)
  audit_report : Audit.Checker.report option;
      (** the invariant auditor's verdict; [None] unless
          {!config.audit} was set *)
}

val run :
  ?config:config -> controller:Sdm.Controller.t -> workload:Workload.t ->
  unit -> stats
