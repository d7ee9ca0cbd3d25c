(** What the experiments share: the two topologies and their
    deployment recipe, the plans most experiments start from, the
    parallel cell fan-out and the controller-level churn replay behind
    ABL-REOPT.  The experiments themselves are data: the flow-level
    ones (Fig. 4/5, Table III, the flow-level ablations) in
    {!Flowlevel}, the packet-level ones in {!Ablation}.

    Deployment recipe for both topologies: middleboxes WP x4, FW x7,
    IDS x7, TM x4 attached to random core routers; one policy proxy
    per edge router; candidate-set sizes FW/IDS 4, WP/TM 2.  Flows
    30k-300k with power-law sizes on [1,5000] calibrated to the
    paper's 1M-10M total packets.

    For the load-balanced strategy, the controller consumes the
    traffic matrix measured on the same workload (the paper's proxies
    measure a previous epoch; with stationary traffic the two
    coincide).

    {b Parallel evaluation.}  Every sweep's cells are pure thunks fanned
    out by {!fan_out} on up to [?jobs] domains, with per-cell seeds
    derived order-independently ({!Stdx.Rng.derive}), so reports are
    bit-identical for every [jobs]. *)

type scenario = Campus | Waxman

val scenario_name : scenario -> string

val mbox_counts : (Policy.Action.nf * int) list
(** WP 4, FW 7, IDS 7, TM 4 — Sec. IV.A. *)

val build_deployment : scenario -> seed:int -> Sdm.Deployment.t

val configure :
  ?k:(Policy.Action.nf -> int) -> ?failed:int list -> Sdm.Deployment.t -> Workload.t ->
  Sdm.Controller.kind -> Sdm.Controller.t
(** {!Sdm.Controller.configure} on the workload's rules; raise
    [Failure] if configuration fails. *)

val hot_potato : Sdm.Deployment.t -> Workload.t -> Sdm.Controller.t
val load_balanced : Sdm.Deployment.t -> Workload.t -> Sdm.Controller.t
(** On the workload's rules (and measured traffic). *)

val busiest : Mbox.Middlebox.t list -> float array -> int
(** The id of the most loaded box, the first on ties. *)

val fan_out : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Results in input order. *)

val fan_out2 : ?jobs:int -> (unit -> 'a) -> (unit -> 'a) -> 'a * 'a

val sum : ('a -> int) -> 'a list -> int

(** {2 Controller-level churn replay} *)

type reopt_step = {
  rs_failed : int list;    (** failure set the chains re-optimized around *)
  rs_cold_pivots : int;    (** phase-2 pivots of the cold two-phase solve *)
  rs_cold_phase1 : int;    (** its phase-1 and drive-out pivots *)
  rs_warm_pivots : int;    (** phase-2 pivots of the warm-started solve *)
  rs_warm_phase1 : int;
      (** its phase-1 and drive-out pivots (install and repair pivots
          are a refactorisation and are not counted) *)
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_seed : int list option;
      (** the failure set whose memo entry seeded the warm solve
          ({!Sdm.Controller.seed_of}); [None] for the previous plan's
          basis *)
  rs_warm_used : bool;     (** a keyed previous basis seeded the solve *)
  rs_fallback : bool;      (** a snapshot was offered but the cold path answered *)
  rs_agree : bool;
      (** |λ_warm − λ_cold| ≤ 1e-6·max(1, |λ_cold|) — the differential
          oracle CI checks on every step *)
}

val reopt_replay :
  scenario -> ?flows:int -> ?seed:int -> unit -> reopt_step list
(** Controller-level churn replay, the differential core of ABL-REOPT:
    starting from one load-balanced configuration, two chains
    re-optimize through the same failure-set sequence — no change, one
    crash, a second concurrent crash, staged recovery, and a final
    no-change step — one chain cold ([use_warm:false]) and one
    incremental ([use_warm:true], candidate patching + LP basis reuse
    threaded step to step).  Per step it records both chains' phase-1
    and phase-2 pivot counts, both optima and the warm step's seed; the
    no-change steps must warm-solve in exactly zero pivots, and every
    step's optima must agree within tolerance.
    Deterministic: a pure function of (scenario, flows, seed). *)

val reopt_solve_ms :
  clock:(unit -> float) -> scenario -> ?flows:int -> ?seed:int -> unit ->
  float * float
(** Wall-clock companion of {!reopt_replay}: milliseconds per
    [Controller.reoptimize] call, cold then warm, over five replays of
    the same churn chain timed with [clock] (seconds). *)

val churn_victims : Sdm.Deployment.t -> int * int
(** The first IDS and the first FW box: the churn chains' victims. *)
