(** The experiments' reports as {!Table} specs, in the shape the paper
    reports them: one series block per middlebox type for the figures
    (x = total traffic, y = max load, three strategy columns), the
    max/min table for Table III, and one table per ablation.  Each
    [*_csv] export is derived from the same column list as its text
    table; an [audit] cell is empty when auditing was off. *)

val figure : Experiment.figure -> Table.doc
val table3 : Experiment.table3_row list -> Table.doc
val k_ablation : Experiment.k_point list -> Table.doc
val cache_ablation : Pktsim.stats -> Table.doc
val cache_size_ablation : Experiment.cache_size_point list -> Table.doc
val frag_ablation : Experiment.frag_report -> Table.doc
val failure_ablation : Experiment.failure_report -> Table.doc
val sketch_ablation : Experiment.sketch_point list -> Table.doc
val epochs : Epochsim.epoch_metrics list -> Table.doc
val latency_ablation : Experiment.latency_report -> Table.doc
val queue_ablation : Experiment.queue_report -> Table.doc
val lp_ablation : Experiment.lp_compare -> Table.doc

val chaos : Experiment.chaos_report -> Table.doc
(** Two derived cells: recovery (crash to last violation) and the
    busiest surviving peer's load. *)

val live : Experiment.live_report -> Table.doc
val quorum : Experiment.quorum_report -> Table.doc
val corrupt : Experiment.corrupt_report -> Table.doc

val reopt : Experiment.reopt_report -> Table.doc
(** Ends with the deterministic
    ["warm/cold objective agreement: A/T replay steps"] line CI greps. *)

val figure_csv : Experiment.figure -> string
(** [nf,flows,packets,hp,rand,lb], one row per (type, volume point). *)

val table3_csv : Experiment.table3_row list -> string
(** [nf,hp_max,hp_min,rand_max,rand_min,lb_max,lb_min]. *)

val live_csv : Experiment.live_report -> string
(** [loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit]. *)

val live_devices_csv : Experiment.live_report -> string
(** Lossiest row, per device: [device,version,lag,retries,lost]. *)

val quorum_csv : Experiment.quorum_report -> string
(** [scenario,loss,injected,delivered,violating,versions,rounds,commits,aborts,msgs,lost,elections,degraded,stale,uncommitted,replica_versions,audit];
    [uncommitted] is versions published without a quorum commit
    (always 0), [replica_versions] is "/"-separated. *)

val corrupt_csv : Experiment.corrupt_report -> string
(** [plan,rate,sweep_period,injected,delivered,corruptions,manifested,detected,repaired,violating,window_mean,window_max,sweep_rounds,sweep_msgs,sweep_bytes,audit];
    [sweep_period] is empty on sweep-disabled rows. *)

val reopt_csv : Experiment.reopt_report -> string
(** [scenario,routers,mode,reopts,pivots,phase1,warm_used,fallback,injected,delivered,violating,versions,degraded,max_load,audit];
    [pivots] counts phase-2 pivots, [phase1] the phase-1 and drive-out
    pivots on top of them. *)

val reopt_steps_csv : Experiment.reopt_report -> string
(** [scenario,step,failed,cold_pivots,warm_pivots,cold_lambda,warm_lambda,warm_used,fallback,agree];
    [failed] is "+"-separated middlebox ids, empty on no-change
    steps. *)
