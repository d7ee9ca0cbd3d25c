(** Per-router forwarding tables.

    A table maps every destination node to the next hop on the
    (deterministically tie-broken) shortest path, which is exactly the
    state OSPF installs in each router.  This module computes the
    tables from a global view; the [ospf] library computes the same
    tables by distributed LSA flooding, and an integration test checks
    the two agree.  Every router holds exactly one next hop per
    destination: equal-cost multipath is outside the model. *)

type table = int array
(** [table.(dst)] is the next-hop node id, [dst] itself when the router
    is the destination, or [-1] when unreachable. *)

val table_for : Graph.t -> int -> table

val build_all : Graph.t -> table array
(** One table per node. *)

val next_hop : table -> int -> int option

val walk : table array -> src:int -> dst:int -> int list
(** Follow next hops from [src] to [dst]; returns the node sequence
    including both endpoints.  Raises [Failure] if a loop or a dead end
    is encountered (cannot happen on tables produced by
    {!build_all}). *)
