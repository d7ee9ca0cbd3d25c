(** Hash-based probabilistic next-hop selection (Sec. III.C).

    "x hashes the flow identifier of the packet … Let r be the hash
    output in the range [0, N).  Middlebox y_i will be selected if
    Σ_{j<i} t/Σ t ≤ r/N < Σ_{j≤i} t/Σ t."  Hashing rather than random
    drawing keeps every packet of a flow on the same middlebox.

    The hash is salted with the deciding entity and the function being
    sought so the per-hop selections of one flow are independent. *)

val flow_point :
  Netpkt.Flow.t -> entity:Mbox.Entity.t -> nf:Policy.Action.nf -> float
(** Deterministic value in [0,1) — the paper's r/N. *)

val pick : (int * float) array -> u:float -> int option
(** Cumulative-bucket selection: [pick row ~u] returns the id whose
    bucket contains [u], or [None] when all weights are zero (caller
    falls back to hot-potato).  Raises [Invalid_argument] if [u] is
    outside [0,1) or a weight is negative. *)

val pick_slot : (int * float) array -> u:float -> int
(** {!pick} as the chosen entry's index in the row, [-1] for [None]:
    no option on the per-packet path. *)

val pick_uniform : 'a list -> u:float -> 'a
(** Uniform selection among candidates (the Rand baseline).
    Raises [Invalid_argument] on an empty list. *)

val flow_key :
  Netpkt.Flow.t -> entity:Mbox.Entity.t -> nf:Policy.Action.nf -> Int64.t
(** The salted flow hash {!flow_point} is derived from, before the
    unit-interval projection — the key {!pick_hrw} consumes. *)

val pick_hrw : (int * float) array -> key:Int64.t -> int option
(** Weighted rendezvous (highest-random-weight) selection: every
    candidate id scores [-w / ln(hash(key, id))] and the highest score
    wins.  Same contract as {!pick} — [None] when all weights are
    zero, [Invalid_argument] on a negative weight, selection
    frequencies proportional to the weights — but the choice is
    independent of row order, and removing a losing candidate never
    reshuffles the winners (minimal-disruption failover, unlike the
    cumulative buckets of {!pick} which shift on any row change). *)
