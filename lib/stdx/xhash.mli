(** FNV-1a hashing.

    Used for flow-identifier hashing: the paper's probabilistic
    middlebox selection hashes the 5-tuple of a packet to a value [r]
    in [\[0, N)] and picks the candidate whose cumulative weight bucket
    contains [r].  The hash must be deterministic across runs, which
    rules out OCaml's seeded [Hashtbl.hash]. *)

val fnv_offset : int64
val fnv_prime : int64

val string : string -> int64
(** FNV-1a over the bytes of a string. *)

val fold_int : int64 -> int -> int64
(** [fold_int acc n] mixes the 8 bytes of [n] into the running hash
    [acc].  Start from {!fnv_offset}. *)

val ints : int list -> int64
(** Hash a list of ints (e.g. the fields of a flow identifier). *)

(** {2 Non-allocating entry points}

    Bit-identical to folding the same ints with {!ints} /
    {!fold_int}, but computed in two 32-bit native-int limbs so the
    per-packet fast path boxes nothing until the final result (and,
    for the [_unit] variants, nothing at all beyond the returned
    float).  The test suite pins the old/new agreement. *)

val combine2 : int -> int -> int64
(** [combine2 a b = ints [a; b]], without intermediate boxing. *)

val combine3 : int -> int -> int -> int64
(** [combine3 a b c = ints [a; b; c]]. *)

val combine5 : int -> int -> int -> int -> int -> int64
(** [combine5 a b c d e = ints [a; b; c; d; e]] — the 5-tuple flow
    hash. *)

val combine7 : int -> int -> int -> int -> int -> int -> int -> int64
(** Seven-int fold: flow 5-tuple plus entity key plus salt — the
    rendezvous/steering key. *)

val combine7_unit : int -> int -> int -> int -> int -> int -> int -> float
(** [to_unit_interval (combine7 ...)] without boxing the hash. *)

val score_unit : int64 -> int -> float
(** [score_unit key salt = to_unit_interval (fmix64 (fold_int key
    salt))] without boxing any intermediate: the per-candidate
    rendezvous score. *)

type state
(** A running FNV-1a fold over ints, updated in place: after [start ()],
    [add s a] and [add s b], [value s = Int64.to_int (ints [a; b])] and
    [finish s = fmix64 (ints [a; b])] (which finalizes [s]).  [reset s]
    returns [s] to [start ()]. *)

val start : unit -> state
val reset : state -> unit
val add : state -> int -> unit
val value : state -> int
val finish : state -> int64

val mix2_int : int -> int -> int
(** Non-negative native-int mixer for open-addressing probe
    sequences.  Deterministic but {e not} FNV — do not feed its value
    into anything a digest or an oracle pins. *)

val fmix64 : int64 -> int64
(** Murmur3's 64-bit avalanche finalizer: a bijection on [int64] under
    which a single-bit input change flips every output bit with
    probability ~1/2.  Applied after an FNV-1a fold when downstream
    consumers need independent-looking hashes — rendezvous selection
    scores, and the per-entry hashes XOR-folded into order-independent
    state digests (a raw FNV hash would let correlated entries cancel). *)

val to_unit_interval : int64 -> float
(** Map a hash to a float in [\[0, 1)], uniformly. *)

val to_range : int64 -> int -> int
(** [to_range h n] maps a hash to [\[0, n)].  [n] must be > 0. *)
