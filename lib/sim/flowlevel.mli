(** The flow-level experiments as data: Figures 4 and 5, Table III and
    the flow-level ablations (k, fail, epoch, sketch, lp).

    An experiment is a list of {!scenario}s (deployment, workload,
    plan, and the live middleboxes when local fast failover is on),
    each with its {!cell}s: a label and a change to the scenario.
    {!sweep} runs every cell once through {!Flowsim.run} and returns
    [(label, plan, result)] rows.  The report is a {!Table} spec over
    those rows plus preamble lines.  Cells fan out through
    {!Ablation.fan}, as the packet-level ablations do, so rows are
    bit-identical for every [jobs]; the workloads of the figures' volume
    points and of the epochs are generated in one fan-out too, and
    every LP solve runs inside a cell.  Campus unless noted. *)

type scenario = {
  deployment : Sdm.Deployment.t;
  workload : Workload.t;
  plan : Sdm.Controller.t;
  alive : (int -> bool) option;  (** [None]: every middlebox is up *)
}

type 'k cell = 'k * (scenario -> scenario)
type 'k row = 'k * Sdm.Controller.t * Flowsim.result

type 'k t = {
  sweeps : (scenario * 'k cell list) list;
  probes : (Sdm.Controller.t * Flowsim.result) list;
      (** runs made before the sweep, which its cells depend on *)
  report : 'k row list -> Table.doc * (string * string) list;
      (** the text and the CSV files (name, contents) *)
}

val sweep : ?jobs:int -> (scenario * 'k cell list) list -> 'k row list
val filter : ('k -> bool) -> 'k t -> 'k t
(** Keep the cells whose label passes. *)

val scenario :
  ?per_class:int -> ?rule_seed:int -> ?class_mix:float * float * float ->
  Sdm.Deployment.t -> seed:int -> flows:int -> scenario
(** A generated workload ({!Workload.generate}, [per_class] 5) under
    the hot-potato plan. *)

val strategies : string cell list
(** "HP" (the scenario's plan), "Rand", and "LB" on the workload's
    measured traffic. *)

(** {2 The experiments} *)

val figure :
  Experiment.scenario -> ?flow_counts:int list -> seed:int -> jobs:int -> file:string ->
  unit -> ((int * int) * string) t
(** One scenario per volume point (default 30k .. 300k flows in steps
    of 30k) under one policy set, each with {!strategies}; labels
    ((flows, packets), strategy).  The CSV [file] has a row per (type,
    point): [nf,flows,packets,hp,rand,lb]. *)

val table3 :
  Experiment.scenario -> ?file:string -> flows:int -> seed:int -> unit -> string t
(** {!strategies} on one workload: the max and min load per type.  The
    CSV [file], when given, has [nf,hp_max,hp_min,rand_max,rand_min,
    lb_max,lb_min]. *)

val k : flows:int -> seed:int -> (int * int) t
(** LB with candidate-set sizes (FW/IDS, WP/TM); k = 1 reproduces HP. *)

val fail : flows:int -> seed:int -> string t
(** Probe: LB.  Its most-loaded IDS box fails, then "failover" (local
    fast failover on the stale LB weights), "re-optimized" (LB without
    the box) and "HP failover".  Every packet keeps being enforced: the
    chain is never skipped. *)

val epoch : flows:int -> seed:int -> jobs:int -> ((int * int * int) * string) t
(** Six epochs of drifting traffic (a rotating class skew, volume ±25%
    around [flows]) under one policy set; labels ((epoch, flows,
    packets), plan): "stale" (LB on the previous epoch's measurement,
    hot-potato in epoch 0), "clairvoyant" (LB on the epoch's own) and
    "HP". *)

val sketch : flows:int -> seed:int -> float t
(** Probe: LB on the exact traffic matrix.  Then LB planned on
    Count-Min sketched matrices, one cell per epsilon. *)

val lp : flows:int -> seed:int -> string t
(** "exact:" (Eq. (1), per-(s,d) rows) and "simplified:" (Eq. (2)) on
    a small campus instance: LP size, optimum, realised max load and
    the weight rows each plan disseminates. *)
