(** Traffic descriptors: the matching half of a policy.

    "A policy consists of a traffic descriptor and an ordered action
    list.  The traffic descriptor contains a number of packet-header
    fields, and wildcards may be used as masks."  We support the
    fields of Table I: source/destination address prefixes (wildcard =
    /0), exact-or-wildcard ports, and exact-or-wildcard protocol. *)

type port_match = Any_port | Port of int | Port_range of int * int

type proto_match = Any_proto | Proto of int

type t = {
  src : Netpkt.Addr.Prefix.t;
  dst : Netpkt.Addr.Prefix.t;
  sport : port_match;
  dport : port_match;
  proto : proto_match;
}

val make :
  ?src:Netpkt.Addr.Prefix.t ->
  ?dst:Netpkt.Addr.Prefix.t ->
  ?sport:port_match ->
  ?dport:port_match ->
  ?proto:proto_match ->
  unit ->
  t
(** Omitted fields are wildcards.  Raises [Invalid_argument] on a port
    outside 0..65535, an empty port range or a protocol outside
    0..255. *)

val any : t

val matches : t -> Netpkt.Flow.t -> bool

val src_overlaps : t -> Netpkt.Addr.Prefix.t -> bool
(** Can traffic originating in the given subnet match this descriptor?
    Drives the controller's computation of each proxy's relevant
    policy subset [P_x]. *)

val dst_overlaps : t -> Netpkt.Addr.Prefix.t -> bool

val port_matches : port_match -> int -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
