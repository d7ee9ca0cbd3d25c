(* The live-control-plane knobs and the run's result record of
   {!Pktsim}, defined here, below {!Controlplane}, so the control plane
   can count straight into the same flat record as the data plane.
   Pktsim re-exports both types; pktsim.mli documents every field. *)

type live_config = {
  epoch_interval : float;
  reconcile_interval : float;
  replicas : int;
  sweep_period : float option;
  warm_start : bool;
}

(* The fields the run increments are mutable, the derived ones are
   filled in at the end. *)
type stats = {
  loads : float array;
  mutable injected_packets : int;
  mutable delivered_packets : int;
  mutable dropped_packets : int;
  mutable control_packets : int;
  mutable multi_field_lookups : int;
  mutable cache_hits : int;
  mutable cache_negative_hits : int;
  mutable tunneled_packets : int;
  mutable label_switched_packets : int;
  mutable fragments_created : int;
  mutable router_hops : int;
  sim_time : float;
  latency_mean : float;
  latency_p50 : float;
  latency_p99 : float;
  mutable label_misses : int;
  mutable teardowns : int;
  mutable wp_cache_served : int;
  cache_evictions : int;
  events_scheduled : int;
  events_processed : int;
  mutable policy_violations : int;
  mutable fault_dropped : int;
  mutable control_retries : int;
  mutable control_lost : int;
  mutable last_violation_time : float;
  mutable config_pushes : int;
  mutable config_acks : int;
  mutable config_lost : int;
  mutable config_bytes : int;
  mutable reoptimizations : int;
  mutable config_degraded : int;
  final_config_version : int;
  stale_devices : int;
  entity_control_retries : int array;
  entity_control_lost : int array;
  entity_config_version : int array;
  mutable quorum_rounds : int;
  mutable quorum_commits : int;
  mutable quorum_aborts : int;
  mutable quorum_msgs : int;
  mutable quorum_lost : int;
  mutable leader_changes : int;
  replica_versions : int array;
  mutable corruptions_injected : int;
  mutable corruptions_manifested : int;
  mutable corruptions_detected : int;
  mutable corruptions_repaired : int;
  mutable sweep_rounds : int;
  mutable sweep_msgs : int;
  mutable sweep_lost : int;
  mutable sweep_bytes : int;
  repair_window_mean : float;
  mutable repair_window_max : float;
  mutable reopt_pivots : int;
  mutable reopt_phase1_pivots : int;
  mutable reopt_warm_used : int;
  mutable reopt_fallback : int;
  audit_report : Audit.Checker.report option;
}
