(** Packet-level network simulator on the discrete-event engine.

    The faithful (and slower) counterpart of {!Flowsim}: every packet
    of every flow is injected at its source proxy, classified against
    the proxy's policy table (flow cache first, Sec. III.D), tunnelled
    IP-over-IP middlebox to middlebox, optionally upgraded to label
    switching after the chain's last middlebox confirms (Sec. III.E),
    and routed through the routers' shortest-path tables (global
    Dijkstra, which {!Ospf.Session} provably converges to), which know
    nothing about policies.  Proxy and middlebox policy tables are
    {!Policy.Matcher}s.

    Fixed model constants: 1500-byte MTU, 0.1 time units per router
    hop, flow-cache entries that never expire, and label-control
    packets retransmitted up to 3 times on a 5.0 timer.

    Router transit is {e hop fast-forwarded}: between two policy
    decision points (proxy, middlebox, destination subnet) forwarding
    is deterministic under fixed tables, so the simulator walks the
    per-hop tables inline and schedules a single event per path
    segment instead of one per router hop.  Hop and fragment counters
    and every timestamp are identical to per-hop execution; only
    {!stats.events_processed} shrinks.  Per-event fidelity is kept
    exactly where state evolves over time — middlebox FIFO queueing,
    crashes, and mid-run topology changes.

    Used by integration tests (per-middlebox loads must equal
    {!Flowsim.run}'s), by the cache and fragmentation ablations, and
    by the label-switching example.  Keep workloads at packet-level
    scale (≤ ~100k packets); the figure-scale experiments use
    {!Flowsim}. *)

(** Live control plane ({!Controlplane}, which documents the protocol).
    When {!config.live} is set, the controller becomes a simulated
    entity that re-optimizes in-run and pushes versioned configuration
    updates to every proxy and middlebox over the lossy control
    channel. *)
type live_config = Pktsim_types.live_config = {
  epoch_interval : float;
      (** period of measurement-driven re-optimizations (default 25.0);
          epochs are scheduled across the traffic window *)
  reconcile_interval : float;
      (** period of the re-push loop for stale devices (default 5.0) *)
  replicas : int;
      (** controller replicas (default 1 = the unreplicated control
          plane), placed by {!Controlplane.replica_routers} from the
          controller's router *)
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
      (** warm-start every in-run re-optimization: candidate sets are
          patched from the ranked lists instead of recomputed, and the
          LP is seeded from the basis of the largest failure set the
          controller has already solved inside the current one
          ({!Sdm.Controller.reoptimize} with [use_warm],
          {!Sdm.Controller.seed_of}).  Warm plans are optima the cold
          path would also reach; only the pivot counters change.
          [false] (the default) runs the cold path, bit-identical to
          builds without warm-start support. *)
}

val default_live : live_config

type config = {
  label_switching : bool; (** default true *)
  packet_interval : float;(** spacing within a flow, default 1.0 *)
  start_window : float;   (** flow start times uniform in [0, w), default 50. *)
  seed : int;             (** start-time jitter seed, default 99 *)
  service_rate : float;
      (** middlebox processing capacity in packets per time unit;
          packets queue FIFO and wait when a box is busy, so an
          overloaded middlebox shows up as latency.  Default
          [infinity] = processing is instantaneous (the load-counting
          semantics of the figures). *)
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
}

val default_config : config

(** The run's result.  The run counts straight into one value of this
    record, so the counters are [mutable]; treat them as read-only. *)
type stats = Pktsim_types.stats = {
  loads : float array;            (** packets processed per middlebox id *)
  mutable injected_packets : int;
  mutable delivered_packets : int;
  mutable dropped_packets : int;
      (** TTL expiry / lookup failure; expect 0 *)
  mutable control_packets : int;          (** label-switching confirmations *)
  mutable multi_field_lookups : int;
      (** policy-table lookups at proxies+middleboxes *)
  mutable cache_hits : int;
  mutable cache_negative_hits : int;
  mutable tunneled_packets : int;
      (** tunnel legs traversed IP-over-IP *)
  mutable label_switched_packets : int;
      (** legs traversed by label switching *)
  mutable fragments_created : int;
      (** extra fragments beyond original packets *)
  mutable router_hops : int;
  sim_time : float;
  latency_mean : float;           (** end-to-end delivery latency; 0.0 if none *)
  latency_p50 : float;
  latency_p99 : float;
  mutable label_misses : int;
      (** label-switched packets that found no entry (crash-wiped or
          corrupted state); each is lost, a teardown notification
          travels back to the proxy, and the flow falls back to
          IP-over-IP until re-established *)
  mutable teardowns : int;
      (** teardown notifications delivered to proxies *)
  mutable wp_cache_served : int;
      (** packets answered from a web proxy's cache *)
  cache_evictions : int; (** capacity-forced flow-cache evictions, all nodes *)
  events_scheduled : int;
      (** engine events created over the run — with hop fast-forwarding
          this stays well below one per router hop *)
  events_processed : int; (** engine events fired over the run *)
  mutable policy_violations : int;
      (** packets of enforced flows that escaped their chain: steered
          into a crashed middlebox, or dropped because every candidate
          for some function was believed dead.  0 without faults. *)
  mutable fault_dropped : int;
      (** packets lost to injected faults (dead-box arrivals plus
          per-link loss); a subset of [dropped_packets] *)
  mutable control_retries : int;
      (** control-packet retransmissions triggered by [control_loss] *)
  mutable control_lost : int; (** control-packet transmissions lost to faults *)
  mutable last_violation_time : float;
      (** simulated time of the last policy violation (0.0 if none) —
          [last_violation_time - crash time] is ABL-CHAOS's recovery
          time *)
  (* Live control plane — all zero (and all-zero arrays) when
     [config.live = None]. *)
  mutable config_pushes : int;
      (** config-push transmissions sent, retries included *)
  mutable config_acks : int;
      (** install acknowledgements the controller received *)
  mutable config_lost : int;
      (** config/ack transmissions lost to [control_loss] *)
  mutable config_bytes : int;
      (** configuration bytes put on the wire ({!Controlplane}'s byte
          model, priced per transmission) *)
  mutable reoptimizations : int; (** configuration versions published *)
  mutable config_degraded : int;
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
  mutable quorum_rounds : int;  (** propose/accept/commit rounds started *)
  mutable quorum_commits : int; (** rounds that reached quorum and committed *)
  mutable quorum_aborts : int;
      (** rounds abandoned: quorum unreachable (partition, crashes,
          retries exhausted) or superseded by a fresher candidate *)
  mutable quorum_msgs : int;
      (** proposal / vote / commit-notice transmissions, retries
          included *)
  mutable quorum_lost : int; (** of those, lost to the control channel *)
  mutable leader_changes : int;
      (** deterministic re-elections after leader crashes *)
  replica_versions : int array;
      (** per-replica highest committed version at run end (empty when
          [live = None]) — divergence from [final_config_version]
          shows which replicas a partition left behind *)
  (* Silent state corruption and anti-entropy repair.  All zero unless
     the fault schedule carries corruption events (injection counters)
     or [live.sweep_period] is set (sweep counters). *)
  mutable corruptions_injected : int;
      (** corruption events that actually mutated state (an event
          aimed at an empty table, a crashed box, or a version-0
          device no-ops and is not counted) *)
  mutable corruptions_manifested : int;
      (** injected corruptions whose state influenced the data plane
          at least once before repair (mis-steered / bypassed packets,
          lost-entry drops, regressed-weight decisions) *)
  mutable corruptions_detected : int;
      (** digest mismatches the sweep found (one per device visit that
          scrubbed) *)
  mutable corruptions_repaired : int;
      (** injected corruptions retired: scrub-purged, naturally
          overwritten/rebased, crash-wiped, or config re-installed *)
  mutable sweep_rounds : int; (** anti-entropy rounds the live leader ran *)
  mutable sweep_msgs : int;
      (** sweep queries + reports sent, retries included *)
  mutable sweep_lost : int;   (** of those, lost to the control channel *)
  mutable sweep_bytes : int;
      (** sweep wire overhead — the repair-traffic cost *)
  repair_window_mean : float;
      (** mean inject-to-repair time over repaired corruptions (0 when
          none) *)
  mutable repair_window_max : float; (** worst inject-to-repair window *)
  mutable reopt_pivots : int;
      (** phase-2 simplex pivots across every in-run re-optimization (0 when
          [live = None]) *)
  mutable reopt_phase1_pivots : int;
      (** phase-1 and drive-out pivots across the same re-solves,
          counted apart from [reopt_pivots] — cold-path work a
          successful warm start skips entirely *)
  mutable reopt_warm_used : int;
      (** re-solves a remembered basis seeded (0 unless
          [live.warm_start]) *)
  mutable reopt_fallback : int;
      (** warm attempts that fell back to the cold two-phase path *)
  audit_report : Audit.Checker.report option;
      (** the invariant auditor's verdict; [None] unless
          {!config.audit} was set *)
}

val zero_stats : n_mboxes:int -> n_devices:int -> stats
(** All counters zero, per-middlebox and per-device arrays sized for a
    deployment: what a run starts counting from. *)

val run :
  ?config:config -> controller:Sdm.Controller.t -> workload:Workload.t ->
  unit -> stats
(** Simulate [workload] under [controller].  Raises [Invalid_argument]
    before any work on an out-of-range config value: a negative or
    non-finite [packet_interval], [start_window] or [detection_delay];
    a non-positive [service_rate]; a
    [wp_cache_hit_ratio] outside [0, 1]; a [cache_capacity] or
    [debug_bypass_chain] below 1; NaN anywhere; an
    invalid live config; or a fault schedule that does not fit the
    deployment. *)
