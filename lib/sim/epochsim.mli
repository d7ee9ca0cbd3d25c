(** Multi-epoch adaptation simulation.

    The paper's controller consumes traffic matrices that proxies
    report "periodically" — so in steady operation the LB weights of
    epoch [e] were computed from the measurements of epoch [e-1].
    This module quantifies what that staleness costs under drifting
    traffic: each epoch redraws the flow population (fixed policy set)
    with a rotating skew of the three policy classes, then compares

    - {b stale LB}: weights planned on the previous epoch's matrix
      (epoch 0 starts as hot-potato, before any measurement exists);
    - {b clairvoyant LB}: weights planned on the same epoch's matrix
      (the figures' setting — an upper bound on adaptation);
    - {b HP}: the measurement-free baseline.

    Expected shape: stale LB sits between clairvoyant LB and HP, far
    closer to clairvoyant, because per-policy volumes drift slowly
    relative to per-flow churn. *)

type epoch_metrics = {
  epoch : int;
  flows : int;
  packets : int;
  stale_lb_max : float;        (** realised max middlebox load *)
  clairvoyant_lb_max : float;
  hp_max : float;
  staleness_gap : float;       (** stale / clairvoyant (>= ~1) *)
}

type report = {
  ep_rows : epoch_metrics list;
  ep_events : int;  (** flow-level events across every epoch's three runs *)
}

val run :
  deployment:Sdm.Deployment.t ->
  ?epochs:int ->
  ?base_flows:int ->
  ?seed:int ->
  ?jobs:int ->
  unit ->
  report
(** Defaults: 6 epochs, 60k base flows (volume oscillates ±25% around
    it), seed 17.  Epochs are inherently sequential (the stale plan
    consumes the previous epoch's matrix); [?jobs] fans the three
    enforcement runs within each epoch out across domains
    ({!Stdx.Domain_pool.map}), which never changes the result. *)
