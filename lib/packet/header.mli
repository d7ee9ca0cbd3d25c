(** IPv4-like packet headers.

    Carries the fields the enforcement system reads or writes: the
    5-tuple, TTL, and the "unused fields" (ToS byte and fragmentation
    offset) in which Sec. III.E embeds a locally unique label.  The
    label occupies the 8 ToS bits plus the 13 offset bits, giving 21
    usable bits; embedding a label adds no bytes to the packet, which
    is the whole point of label switching. *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  sport : int;
  dport : int;
  ttl : int;
  label : int option;  (** the ToS+offset label field; [None] = unset *)
}

val size : int
(** Bytes an IPv4 header occupies on the wire (20, no options). *)

val max_label : int
(** Largest embeddable label: 2^21 - 1. *)

val make :
  ?ttl:int -> ?label:int -> src:Addr.t -> dst:Addr.t -> proto:int ->
  sport:int -> dport:int -> unit -> t
(** Raises [Invalid_argument] if the label exceeds {!max_label}. *)

val of_flow : ?ttl:int -> Flow.t -> t
val flow : t -> Flow.t

val with_label : t -> int -> t
(** Raises [Invalid_argument] if the label exceeds {!max_label}. *)

val clear_label : t -> t
val decrement_ttl : t -> t option
(** [None] when the TTL would reach zero (packet dropped). *)

val pp : Format.formatter -> t -> unit
