(** IPv4 addresses and CIDR prefixes.

    Addresses are 32-bit values carried in OCaml ints.  Prefixes are
    the matching primitive of policy traffic descriptors ("subnet a",
    wildcards) and also name the stub networks behind each policy
    proxy. *)

type t = int
(** An IPv4 address, 0 <= t < 2^32. *)

val of_string : string -> t
(** Dotted quad, e.g. ["128.40.1.2"].  Raises [Invalid_argument] on
    malformed input. *)

val to_string : t -> string

val of_octets : int -> int -> int -> int -> t

module Prefix : sig
  type addr = t

  type t = { base : addr; len : int }
  (** Invariant: host bits of [base] are zero; 0 <= len <= 32. *)

  val mask : int -> addr
  (** The network mask of a prefix length: [contains p a] is
      [a land mask p.len = p.base]. *)

  val make : addr -> int -> t
  (** Normalises the base (masks host bits).  Raises on a bad length. *)

  val of_string : string -> t
  (** ["128.40.0.0/16"]. *)

  val to_string : t -> string

  val any : t
  (** 0.0.0.0/0 — the wildcard. *)

  val is_any : t -> bool

  val contains : t -> addr -> bool

  val subsumes : t -> t -> bool
  (** [subsumes outer inner]: every address of [inner] is in [outer]. *)

  val overlaps : t -> t -> bool

  val first_addr : t -> addr
  val nth_addr : t -> int -> addr
  (** [nth_addr p i] is the i-th address of the prefix (for generating
      distinct hosts inside a stub network).  Raises if out of range
      for prefixes shorter than /32. *)

  val compare : t -> t -> int
end
