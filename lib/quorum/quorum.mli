(** Deterministic quorum agreement for replicated controllers.

    The live control plane of {!Sim.Pktsim} replicates the controller
    over N acceptors and runs a two-phase propose/accept/commit round
    for every configuration version: the leader proposes a candidate
    config (identified by a digest), each reachable acceptor votes,
    and the config is committed — and only then staged for push — once
    the accumulated votes form a quorum.  Everything here is a pure,
    allocation-light state machine: time, transport, loss, and retry
    policy live in the simulator; this module only answers "is this
    set of votes a quorum?" and "may this acceptor accept/commit this
    (version, digest)?", deterministically.

    A quorum is a strict majority of the acceptors.  Any two
    majorities intersect in at least one acceptor, which is what makes
    divergent commits impossible as long as acceptors refuse
    conflicting proposals. *)

val threshold : n:int -> int
(** Votes that constitute a quorum of [n] acceptors: [n / 2 + 1]. *)

(** Per-replica acceptor state machine.  An acceptor remembers the
    highest (version, digest) it has accepted and the highest version
    it has committed; it refuses stale proposals and conflicting
    digests, which is the local rule the quorum intersection turns
    into the global no-divergent-commit guarantee. *)
module Acceptor : sig
  type t

  type verdict =
    | Accept  (** first acceptance of this (version, digest) *)
    | Repeat  (** duplicate delivery of an already-accepted proposal *)
    | Stale
        (** version at or below the acceptor's commit, or below its
            acceptance — refused *)
    | Conflict
        (** proposal contradicts a commitment: same version as the
            acceptor's commit, different digest — refused *)

  val create : unit -> t

  val receive : t -> version:int -> digest:int64 -> verdict
  (** Phase one: consider a proposal.  Accepts a [version] strictly
      beyond the last committed one and at or beyond the last accepted
      one; a re-proposal of an uncommitted version with a new digest
      (the previous round died without quorum) supersedes the old
      acceptance, and re-delivery of the currently accepted proposal
      is an idempotent [Repeat].  Nothing ever supersedes a commit. *)

  val accepted : t -> (int * int64) option
  (** Highest proposal accepted so far. *)

  val commit : t -> version:int -> digest:int64 -> (unit, string) result
  (** Phase two: learn a commit.  An acceptor may commit a version it
      never voted for (it missed the proposal but received the commit
      notice); it must never commit a version at or below its current
      commit with a {e different} digest, nor regress.  Duplicate
      delivery of the current commit is an idempotent [Ok]. *)

  val committed : t -> int
  (** Highest committed version (0 = only the initial config). *)

  val committed_digest : t -> int64
  (** Digest at {!committed} (0L before any commit). *)
end

(** One in-flight propose/accept/commit round for a single candidate
    version.  Tracks which acceptors voted and which are lost to this
    round (down, partitioned, or retries exhausted), so the caller can
    commit as soon as the votes form a quorum and abandon as soon as
    they no longer can. *)
module Round : sig
  type t

  type outcome =
    | Pending
    | Committed
    | Abandoned
        (** the round can no longer reach quorum, or was superseded *)

  val start : n:int -> version:int -> digest:int64 -> t
  (** Raises [Invalid_argument] unless [n >= 1]. *)

  val version : t -> int
  val digest : t -> int64
  val outcome : t -> outcome

  val accept : t -> acceptor:int -> unit
  (** Record a vote; idempotent. *)

  val fail : t -> acceptor:int -> unit
  (** Record an acceptor as lost to this round (refused, unreachable,
      or retries exhausted); idempotent, and a previous vote wins. *)

  val accept_votes : t -> int

  val has_quorum : t -> bool

  val can_reach_quorum : t -> bool
  (** Votes already collected plus votes of still-undecided acceptors
      could still meet the threshold. *)

  val mark_committed : t -> unit
  val mark_abandoned : t -> unit
end
