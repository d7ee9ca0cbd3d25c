(** Network functions and action lists.

    A policy's action list is an ordered sequence of network functions
    — e.g. [FW -> IDS -> WP] — each to be applied by some middlebox
    implementing it.  The empty list is the paper's "permit": forward
    with no middlebox processing.  The four builtin functions are the
    ones the evaluation deploys; [Custom] supports user extensions. *)

type nf =
  | FW   (** firewalling *)
  | IDS  (** intrusion detection *)
  | WP   (** web proxying *)
  | TM   (** traffic measurement *)
  | Custom of string

type t = nf list

val permit : t
(** The empty action list. *)

val is_permit : t -> bool

val builtin : nf list
(** [FW; IDS; WP; TM]. *)

val equal_nf : nf -> nf -> bool
val compare_nf : nf -> nf -> int

val nf_to_string : nf -> string
val nf_salt : nf -> int
(** [Int64.to_int (Stdx.Xhash.string (nf_to_string nf))]: the salt of
    the steering hash and the state digests, a constant when built in. *)

val add_salts : Stdx.Xhash.state -> t -> unit
(** Fold each function's {!nf_salt} into the hash, in order. *)

val nf_of_string : string -> nf
(** Inverse of [nf_to_string]; unknown names become [Custom]. *)

val to_string : t -> string
(** ["FW -> IDS"] or ["permit"]. *)

val adjacent_pairs : t -> (nf * nf) list
(** Consecutive function pairs — the [I_p(e,e')] structure of the LP. *)

val first : t -> nf option
(** [J_p(e)] — the head of the list. *)

val last : t -> nf option
(** [J'_p(e)] — the last element. *)

val next_after : t -> nf -> nf option
(** [next_after actions e] is the function following the first
    occurrence of [e]; [None] when [e] is last or absent. *)

val has_duplicates : t -> bool
(** The per-(e,p) LP formulation assumes chains do not repeat a
    function; callers assert with this. *)

val pp_nf : Format.formatter -> nf -> unit
val pp : Format.formatter -> t -> unit
