(** Workload generation (Sec. IV.A).

    Three policy classes, mirroring the evaluation settings:
    - many-to-one: wildcard source -> one subnet, random service port,
      chain FW -> IDS (protect a service from external threats);
    - one-to-many: one subnet -> wildcard destination, port 80, chain
      FW -> IDS -> WP, plus a companion many-to-one return policy
      (WP -> IDS -> FW on sport 80), present in the policy list even
      though the generator does not emit return traffic for it;
    - one-to-one: one subnet -> another subnet, random service port,
      chain IDS -> TM (investigate a suspicious pair).

    Flows are split evenly across the three classes; sizes follow a
    truncated power law on [1, 5000] packets calibrated so that 30k
    flows total ~1M packets (the paper's 1M-10M range over 30k-300k
    flows).  Packet sizes are trimodal (40 B ACKs, 576 B legacy, 1500 B
    full) — relevant only to the fragmentation ablation.

    Every flow's matching rule is resolved against the *ordered
    network-wide policy list* with first-match semantics, exactly as a
    policy proxy would; a flow aimed at class X that happens to match
    an earlier rule is accounted to that earlier rule. *)

type policy_class = Many_to_one | One_to_many | One_to_one

val class_chain : policy_class -> Policy.Action.t
val class_name : policy_class -> string

type flow_spec = {
  id : int;
  flow : Netpkt.Flow.t;
  src_proxy : int;
  dst_proxy : int;
  rule_id : int option;       (** first-matching rule, [None] = no policy *)
  intended_class : policy_class;
  packets : int;
  packet_bytes : int;         (** bytes per packet, header included *)
}

type t = {
  rules : Policy.Rule.t list; (** the ordered network-wide policy list *)
  flows : flow_spec array;
  total_packets : int;
}

val generate_rules :
  deployment:Sdm.Deployment.t ->
  per_class:int ->
  rng:Stdx.Rng.t ->
  (Policy.Rule.t * policy_class option) list
(** The rule list with each rule's generating class ([None] for
    companion return policies).  Rule ids are list positions. *)

val generate :
  deployment:Sdm.Deployment.t ->
  ?per_class:int ->
  ?seed:int ->
  ?rule_seed:int ->
  ?class_mix:float * float * float ->
  flows:int ->
  unit ->
  t
(** [per_class] policies per class (default 5).  [seed] defaults to 42;
    the experiment entry points pass 17, a placement where every
    middlebox is reachable through some candidate set (chain-aware
    coverage, see DESIGN.md).  [rule_seed] (default [seed]) pins the
    policy set independently of the flow population.  [class_mix]
    weights the (many-to-one, one-to-many, one-to-one) class
    assignment — default exact thirds, as the paper specifies; the
    epoch-adaptation experiment rotates a skewed mix to model traffic
    drift. *)

val measure : t -> Sdm.Measurement.t
(** The traffic matrix T_{s,d,p} the proxies would report: per-flow
    packet counts accumulated on (source proxy, destination proxy,
    matched rule). *)

val rule_of : t -> flow_spec -> Policy.Rule.t option
(** The rule a flow matched ([None] when it matched none).  Apply it
    to [t] once and reuse the result: that builds an id-indexed table,
    and each lookup then returns a stored option without allocating. *)
