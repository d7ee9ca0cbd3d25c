(** The packet-level ablations as data.

    An ablation is a {!scenario} (deployment, workload, plan, the
    fault-free probe runs it is calibrated against, and the
    {!Pktsim.config} every run starts from: fault schedule, live
    control plane, audit) and a list of {!cell}s, each a label and a
    change to the scenario.  {!sweep} runs every cell once and returns
    [(label, stats)] rows.  The report is a {!Table} spec over those
    rows plus preamble lines built from the scenario's constants.
    Cells are pure and fanned out by {!fan}, so rows are bit-identical
    for every [jobs].  The flow-level experiments ({!Flowlevel}) have
    the same shape and share {!fan}.  Campus unless noted. *)

type scenario = {
  deployment : Sdm.Deployment.t;
  workload : Workload.t;
  plan : Sdm.Controller.t;
  probes : Pktsim.stats list;
  config : Pktsim.config;
}

type 'k cell = 'k * (scenario -> scenario)

type 'k report = ('k * Pktsim.stats) list -> Table.doc * (string * string) list
(** The text and the CSV files (name, contents). *)

type 'k t = { sweeps : (scenario * 'k cell list) list; report : 'k report }
(** One scenario per topology. *)

val fan : run:('s -> 'r) -> ?jobs:int -> ('s * ('k * ('s -> 's)) list) list -> ('k * 'r) list
(** Every cell of every scenario, [run] on the changed scenario, in one
    {!Experiment.fan_out}: rows in cell order whatever [jobs] is. *)

val sweep : ?jobs:int -> 'k t -> ('k * Pktsim.stats) list
(** {!fan} with {!Pktsim.run}. *)

val probes : 'k t -> Pktsim.stats list
val filter : ('k -> bool) -> 'k t -> 'k t
(** Keep the cells whose label passes. *)

val audit_violations : Pktsim.stats -> int option
(** [None] when auditing was off for the run. *)

val max_load : Pktsim.stats -> float

(** {2 The ablations}  Cache, cachesize, frag and lat run the LB plan. *)

val cache : flows:int -> seed:int -> unit t
val cachesize : flows:int -> seed:int -> int option t
(** Flow-cache capacity; [None] is unbounded. *)

val frag : flows:int -> seed:int -> bool t
(** Label switching on, off. *)

val lat : flows:int -> seed:int -> string t
(** "enforced", and "plain" with no policies. *)

val queue : flows:int -> seed:int -> string t
(** "HP", "LB" with every box serving {!service_rate} of the LB probe. *)

val service_rate : Pktsim.stats -> float
(** Twice the busiest box's arrival rate: ~50% utilisation under LB. *)

val chaos : flows:int -> seed:int -> audit:bool -> (string * float) t
(** (mode, detection delay) from LB: the busiest IDS box crashes at
    25% of the horizon, a gateway-core link is down from 45% to 65%,
    2% control loss.  HP and LB with failover at delays 2, 10 and 40,
    then LB without failover (delay [infinity]). *)

val live : flows:int -> seed:int -> audit:bool -> jobs:int -> float t
(** Control-loss rate of the live control plane started from the stale
    HP plan.  Probes: the stale plan, then the clairvoyant LB plan. *)

val quorum : flows:int -> seed:int -> audit:bool -> (string * float) t
(** (scenario, control loss) for three replicas from the stale plan:
    leader crash at 30%, partition of the leader from 35% to 70%, 45%
    loss. *)

val corrupt :
  flows:int -> seed:int -> audit:bool -> rate:float option -> sweep_period:float option ->
  (string * float * float option) t
(** (plan, corruption rate, anti-entropy period) over HP and LB, rates
    0.1 and 0.4 or [rate], the sweep off and every twelfth of the
    horizon or [sweep_period] (0 = off). *)

val reopt :
  flows:int -> seed:int -> audit:bool -> jobs:int ->
  (string * int * bool) t * (string * Experiment.reopt_step list) list
(** (topology, routers, warm start) on campus and Waxman from the stale
    plan, an IDS box down from 15% to 35% and an FW box from 45% to
    65%, 2% control loss; with each topology's
    {!Experiment.reopt_replay}. *)

val agreement : (string * Experiment.reopt_step list) list -> int * int
(** Replay steps whose warm and cold optima agree, of all steps. *)

(** {2 Reports over given constants} *)

val chaos_report :
  victim:int -> survivors:int list -> link:(int * int) option -> probe:Pktsim.stats ->
  (string * float) report

val live_report :
  n_proxies:int -> stale:Pktsim.stats -> clairvoyant:Pktsim.stats -> float report
(** The device table shows the lossiest row. *)

val quorum_report : leader_router:int -> probe:Pktsim.stats -> (string * float) report
val corrupt_report : probe:Pktsim.stats -> (string * float * float option) report

val reopt_report :
  topologies:(string * int * (int * int) * Pktsim.stats) list ->
  replays:(string * Experiment.reopt_step list) list -> (string * int * bool) report
(** [topologies]: name, routers, churn victims, probe.  Ends with the
    two lines CI greps: ["replay pivots (phase 1 + phase 2): cold N,
    warm M"], the replay steps' total pivots, then ["warm/cold
    objective agreement: A/T replay steps"]. *)
