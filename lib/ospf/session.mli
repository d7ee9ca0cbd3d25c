(** Link-state routing over the event engine, as a long-running session.

    [start] drives a {!Router.t} per topology node: every router
    originates its LSA at a deterministically jittered time near 0,
    routers flood over links with a fixed propagation delay, and the
    session runs until the event queue drains.  Each router's table is
    then computed from its own database — the distributed counterpart
    of [Netgraph.Routing.build_all], and the tests assert the two are
    identical.

    The routers and their databases stay alive afterwards, so links
    can fail, recover or be re-costed: both endpoints re-originate
    their LSAs and the updates flood through the {e surviving} links
    until the network quiesces again.  Tables then match a global
    Dijkstra oracle on the reduced graph.

    Limitations, as documented trade-offs: LSA aging/flushing is not
    modelled, so a failure that partitions the network leaves stale
    routes toward the lost partition (real OSPF ages them out in
    MaxAge seconds); tests therefore only fail links that keep the
    graph connected. *)

type t

val start : ?link_delay:float -> ?jitter_seed:int -> Netgraph.Topology.t -> t
(** Flood to initial convergence.  [link_delay] (default 1.0) is the
    per-hop propagation delay; origination times are jittered
    deterministically from [jitter_seed] (default 7) to exercise
    asynchrony. *)

val fail_link : t -> int -> int -> unit
(** [fail_link t u v] — both ends notice, re-originate, re-flood to
    quiescence.  Raises [Invalid_argument] if the link does not exist
    (or has already failed). *)

val recover_link : t -> int -> int -> unit
(** [recover_link t u v] — the link comes back at its last advertised
    cost (the original topology cost, or the [change_cost] value if it
    was recosted before failing); both ends re-originate and the
    network reconverges.  Raises [Invalid_argument] if the link is not
    currently failed. *)

val change_cost : t -> int -> int -> float -> unit
(** [change_cost t u v cost] — a metric update (traffic engineering,
    interface renegotiation): both ends re-originate with the new cost
    and the network reconverges.  Raises [Invalid_argument] on a
    non-existent/failed link or a non-positive cost. *)

val tables : t -> Netgraph.Routing.table array
(** Current per-router forwarding tables (computed from each router's
    own database). *)

val surviving_graph : t -> Netgraph.Graph.t
(** The topology minus failed links — the oracle's input. *)

val messages : t -> int
(** Cumulative LSA transmissions, including reconvergence traffic. *)

val convergence_time : t -> float
(** Simulated time of the session's last event: after [start], the
    time the network first quiesced. *)
