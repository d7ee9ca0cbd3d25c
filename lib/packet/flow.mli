(** Flow identifiers: the classic 5-tuple.

    The paper's flow cache keys on this tuple, and its probabilistic
    middlebox selection hashes it, so the tuple's hash must be
    deterministic across runs (FNV-1a via [Stdx.Xhash]). *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;    (** 6 = TCP, 17 = UDP, ... *)
  sport : int;
  dport : int;
}

val make : src:Addr.t -> dst:Addr.t -> proto:int -> sport:int -> dport:int -> t

val compare : t -> t -> int
(** Field-wise monomorphic comparison; the same total order
    [Stdlib.compare] induces on the record. *)

val equal : t -> t -> bool

val key : t -> int
(** [src·2^16 lor sport]: the first half of the 104-bit flow identity
    packed into two non-negative ints, for flow-keyed tables that
    inline keys in int arrays ({!Stdx.Flat_table}).  [key]/[key2]
    together are injective over well-formed flows. *)

val key2 : t -> int
(** [dst·2^24 lor dport·2^8 lor proto]: the second half. *)

val of_key : int -> int -> t
(** Rebuild the flow from its packed halves.
    [of_key (key f) (key2 f) = f]. *)

val hash : t -> int64
(** Deterministic FNV-1a over the five fields. *)

val hash_to_unit : t -> float
(** [hash] mapped to [\[0, 1)] — the value [r / N] used for
    probabilistic next-hop selection. *)

val reverse : t -> t
(** Swap source and destination (address and port) — the return flow. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
