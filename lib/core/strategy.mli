(** Enforcement strategies: who handles the next network function.

    - {!Hot_potato}: always the closest middlebox implementing the
      function (Sec. III.B) — ignores load entirely.
    - {!Random_uniform}: a per-flow uniformly random member of the
      candidate set [M_x^e] (the paper's Rand baseline).
    - {!Load_balanced}: a member of [M_x^e] with probability
      proportional to the LP weights t_{e,p}(x,y) (Sec. III.C).

    All three are deterministic per flow — Rand and LB hash the flow
    identifier — so every packet of a flow visits the same middlebox
    sequence, as the flow cache and label switching require. *)

type t =
  | Hot_potato
  | Random_uniform
  | Load_balanced of Weights.t
  | Load_balanced_exact of Weights_sd.t * Weights.t
      (** Eq. (1) enforcement: per-(s,d) rows, with the aggregated
          table as fallback for pairs absent from the measurement *)

val name : t -> string
(** "HP", "Rand", "LB" or "LBx". *)

val next_hop_result :
  ?alive:(int -> bool) ->
  t ->
  Candidate.t ->
  Mbox.Entity.t ->
  rule:Policy.Rule.t ->
  nf:Policy.Action.nf ->
  Netpkt.Flow.t ->
  (Mbox.Middlebox.t, [ `No_live_candidate ]) result
(** The middlebox that should apply [nf] to [flow], decided at the
    given entity.  Load-balanced falls back to the closest middlebox
    when the LP assigned no volume to this (entity, rule, function)
    row — e.g. traffic that did not appear in the measured epoch.

    [alive] is the local fast-failover filter: candidates for which it
    returns [false] are skipped — HP moves to the next-closest live
    candidate, Rand re-draws uniformly among live candidates, LB
    renormalises the LP weights over the live ones.  This models the
    interval between a middlebox failure and the controller's
    re-configuration.  When every candidate is dead the outcome is
    [Error `No_live_candidate] — a policy violation for the caller to
    count, not a reason to kill the run.

    When [alive] is omitted, or spares every candidate, nothing is
    filtered (candidate sets are non-empty by construction, so without
    [alive] the result is always [Ok]); {!next_hop} then wraps no
    [result] and copies nothing, the fast path the per-packet simulator
    relies on. *)

val next_hop :
  ?alive:(int -> bool) ->
  t ->
  Candidate.t ->
  Mbox.Entity.t ->
  rule:Policy.Rule.t ->
  nf:Policy.Action.nf ->
  Netpkt.Flow.t ->
  Mbox.Middlebox.t
(** Like {!next_hop_result}, but raises [Failure] if no live candidate
    remains — for callers that treat an emptied candidate set as a
    programming error. *)
