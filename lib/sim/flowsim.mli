(** Flow-level enforcement simulator.

    Walks every flow through its policy's middlebox chain using the
    controller's per-entity next-hop decisions, accumulating per-
    middlebox load in packets — the quantity Figures 4/5 and Table III
    report.  Per-flow stickiness is inherent (decisions hash the
    flow), so this computes exactly the loads the packet-level
    simulator observes, at a small fraction of the cost; an
    integration test asserts the equality on small scenarios.

    Also accounts path length (router hops weighted by packets) so
    experiments can report the latency stretch enforcement induces. *)

type result = {
  loads : float array;          (** packets processed, per middlebox id *)
  packet_hops : float;          (** Σ over packets of router hops travelled *)
  direct_packet_hops : float;   (** same traffic, shortest paths, no enforcement *)
  enforced_flows : int;         (** flows that traversed >= 1 middlebox *)
  enforced_packets : int;
  policy_violations : int;
      (** packets whose chain hit an emptied candidate set and were
          hot-potatoed to the destination unenforced (0 without faults) *)
  violating_flows : int;        (** flows contributing to [policy_violations] *)
  events : int;
      (** flow records plus steering decisions processed — the
          flow-level analogue of [Pktsim.stats.events_processed], used
          by the bench harness to report real per-experiment
          throughput *)
}

val run :
  ?alive:(int -> bool) ->
  controller:Sdm.Controller.t -> workload:Workload.t -> unit -> result
(** [alive] enables local fast failover around failed middleboxes; see
    [Sdm.Strategy.next_hop_result].  A flow whose candidate set for
    some function is entirely dead is not an error: the remainder of
    its chain is skipped, it is forwarded to its destination, and its
    packets are counted in [policy_violations]. *)

val loads_of_nf :
  Sdm.Controller.t -> result -> Policy.Action.nf -> float array
(** The load vector restricted to middleboxes of one type (ascending
    id) — rows of Table III. *)

val max_load_of_nf : Sdm.Controller.t -> result -> Policy.Action.nf -> float
(** Maximum entry of {!loads_of_nf} (0 if the type is undeployed) —
    the y-axis of Figures 4 and 5. *)

val stretch : result -> float
(** packet_hops / direct_packet_hops (1.0 = no stretch). *)

val trace :
  controller:Sdm.Controller.t -> Netpkt.Flow.t ->
  Policy.Rule.t option * Mbox.Middlebox.t list
(** Diagnostic: the first-matching rule for a flow and the exact
    middlebox sequence the active strategy steers it through (empty
    for unmatched or permitted flows).  The flow's source address must
    belong to some proxy's subnet, else [Invalid_argument]. *)

val differential :
  ?abs_tol:float -> ?rel_tol:float -> result -> Pktsim.stats -> Audit.Differential.verdict
(** Differential oracle against a packet-level run of the same
    controller and workload: compares the two per-middlebox load
    vectors ({!Audit.Differential.compare}).  On fault-free static
    configurations the default (exact) tolerances must pass. *)
