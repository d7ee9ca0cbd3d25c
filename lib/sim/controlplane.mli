(** Control-plane cost model.

    The paper's architectural argument is that the SDM controller is
    cheap to operate: it talks only to proxies and middleboxes (not to
    every switch), only at configuration time (never per flow), and —
    with Eq. (2)'s aggregated variables — ships small weight tables.
    This module prices that traffic over the real topology: each
    entity's configuration travels hop-by-hop from the controller's
    attachment router, and each proxy's measurement report travels
    back.

    Sizes are modelled with fixed per-item byte costs (policy row
    16 B, candidate entry 4 B, weight cell 12 B, measurement cell
    12 B) — crude, but uniform across the formulations being
    compared. *)

type report = {
  controller_router : int;
  devices_managed : int;     (** proxies + middleboxes *)
  routers_total : int;       (** what an SDN controller would manage *)
  config_messages : int;     (** one per managed device *)
  config_bytes : int;
  config_byte_hops : int;    (** Σ bytes x hop count — network cost *)
  time_to_configure : float; (** max hops x link delay *)
  report_bytes_per_epoch : int; (** proxies' measurement reports *)
}

val device_count : Sdm.Deployment.t -> int
(** Proxies plus middleboxes — everything the controller configures. *)

val device_of_mbox : Sdm.Deployment.t -> int -> int
(** [device_of_entity dep (Middlebox id)] without building the
    entity. *)

val device_of_entity : Sdm.Deployment.t -> Mbox.Entity.t -> int
(** Flat device index: proxies first (by id), then middleboxes.  The
    convention shared by {!Pktsim}'s per-device statistics and the
    audit layer's [Config_install] events. *)

val entity_of_device : Sdm.Deployment.t -> int -> Mbox.Entity.t
(** Inverse of {!device_of_entity}.  Raises [Invalid_argument] out of
    range. *)

val default_router : Sdm.Deployment.t -> int
(** The controller's attachment router when none is given: the first
    gateway, falling back to the first core router. *)

val replica_routers : Sdm.Deployment.t -> primary:int -> n:int -> int list
(** Deterministic attachment routers for [n] controller replicas:
    [primary] first, then the remaining gateways in topology order,
    then the cores.  Raises [Invalid_argument] when [n < 1] or the
    topology lacks [n] distinct transit routers. *)

val entity_bytes : Sdm.Controller.t -> Mbox.Entity.t -> int
(** Size of one entity's configuration under the byte model above —
    also what the live control plane charges per config-push
    message. *)

val price :
  ?controller_router:int ->
  ?link_delay:float ->
  Sdm.Controller.t ->
  traffic:Sdm.Measurement.t ->
  report
(** [controller_router] defaults to the first gateway, falling back to
    the first core router. *)

(** {1 Live control plane}

    Sec. III.A-III.C run in-line, as {!Pktsim} does when
    {!Pktsim.config.live} is set.  The controller becomes a simulated
    entity at an attachment router: at epoch boundaries it re-solves
    the placement from the traffic volumes measured since the run
    began, and one detection delay after every middlebox transition it
    re-optimizes around the believed-failed set.  Each published
    configuration carries a monotonically increasing {e version} and
    is pushed hop-by-hop to every proxy and middlebox over the lossy
    control channel, with per-device acknowledgement, a periodic
    reconciliation loop that re-pushes to devices stuck on stale
    versions, and graceful degradation to the last-known-good
    configuration when the controller is partitioned from a device or
    the new configuration fails verification.

    One exchange carries every control message — config push and ack,
    sweep query and report, proposal and vote, commit notice — and
    one retry ladder backs them all off: up to 6 retries after 2, 4,
    ..., 64 time units.

    Mixed-version safety: a new version is published only after
    {!Sdm.Verify.check_window} certifies every reachable mix of the
    two adjacent versions.  Devices stage at most {installed-1,
    installed}; flows stay sticky to the version that admitted them
    (clamped into the staged window), and label-table entries more
    than one version old are purged on install, so an in-flight flow
    crossing an update boundary re-establishes its path instead of
    stranding.

    Replication ([replicas > 1]): the controller becomes [replicas]
    replicas at distinct attachment routers ({!replica_routers} from
    {!default_router}); the lowest-id live replica leads.  Every
    candidate configuration runs a two-phase {!Quorum} round — propose
    out, votes back — and is published only once a strict majority of
    the replicas accepted it.  A leader crash triggers a deterministic
    re-election one detection delay later; a minority-side partition
    abandons its round and degrades to last-known-good without ever
    publishing.  [replicas = 1] (the default) commits synchronously
    with zero quorum traffic.

    The control plane never sees the data plane's state: it reaches
    the network only through {!net}. *)

type net = {
  hops : from:int -> target:int -> int option;
      (** router hops from [from] to [target] on the current routing
          tables; [None] when partitioned *)
  control_lost : unit -> bool;
      (** one loss draw of the control channel, per transmitted leg *)
  device_up : Mbox.Entity.t -> bool;
  install : dev:int -> version:int -> unit;
      (** the device side of an install, after the version is stored *)
  sweep_check : dev:int -> unit;
      (** the device side of a sweep visit: digest check and scrub *)
  believed_failed : unit -> int list;
      (** middleboxes the failure detector believes down *)
  corruption_outstanding : unit -> bool;
      (** some injected corruption is not repaired yet *)
}

(** Live control-plane state.  The data plane reads it directly on
    every packet (installed versions, published configs, the traffic
    measurement); only this module writes it. *)
type t = private {
  lcfg : Pktsim_types.live_config;
  dep : Sdm.Deployment.t;
  engine : Dess.Engine.t;
  stats : Pktsim_types.stats; (** counted into; owned by the run *)
  audit : Audit.Checker.t option;
  net : net;
  link_delay : float; (** per router hop *)
  mutable configs : Sdm.Controller.t array;
      (** [configs.(v)] is version [v]; version 0 is the start plan *)
  mutable latest : int;
  device_version : int array; (** installed, per flat device index *)
  device_acked : int array;   (** highest version the controller saw acked *)
  meas : Sdm.Measurement.t;   (** per-(src, dst, rule) volumes so far *)
  mutable horizon : float;    (** time of the last scheduled injection *)
  mutable reconcile_rounds : int;
  mutable sweep_ticks : int;  (** sweep periods elapsed, leader or not *)
  mutable leader : int;
  replica_router : int array;
  replica_up : bool array;
  acceptors : Quorum.Acceptor.t array; (** durable across crashes *)
  mutable round : Quorum.Round.t option;
  mutable pending : Sdm.Controller.t option;
      (** candidate waiting on its quorum round *)
}

val create :
  Pktsim_types.live_config ->
  controller:Sdm.Controller.t ->
  engine:Dess.Engine.t ->
  stats:Pktsim_types.stats ->
  audit:Audit.Checker.t option ->
  link_delay:float ->
  net ->
  t
(** A control plane on [controller]'s deployment, publishing
    [controller] as version 0.  Schedules nothing. *)

val start : t -> horizon:float -> unit
(** Arm the epoch re-optimizations up to [horizon], the reconciliation
    heartbeat and (when [sweep_period] is set) the anti-entropy
    sweep. *)

val publish : t -> Sdm.Controller.t -> unit
(** Publish a committed configuration as the next version and push it
    to every device.  In a run only a quorum commit calls this. *)

val reoptimize : t -> unit
(** Re-solve from the measured traffic around the believed-failed set
    and submit the plan to a quorum round. *)

val handle_ctrl_crash : t -> int -> unit
(** The crash of replica [id] has been detected: re-elect if it led. *)

val set_replica_up : t -> int -> bool -> unit
(** A replica crashed or recovered; ids past [replicas] are ignored. *)

val regress_device : t -> int -> unit
(** Take one version back from a device, silently: the lost-install
    corruption. *)
