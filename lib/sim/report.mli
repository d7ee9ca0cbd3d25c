(** The flow-level experiments' reports as {!Table} specs, in the
    shape the paper reports them: one series block per middlebox type
    for the figures (x = total traffic, y = max load, three strategy
    columns), the max/min table for Table III, and one table per
    flow-level ablation.  Each [*_csv] export is derived from the same
    column list as its text table.  The packet-level reports live with
    their ablations in {!Ablation}. *)

val figure : Experiment.figure -> Table.doc
val table3 : Experiment.table3_row list -> Table.doc
val k_ablation : Experiment.k_point list -> Table.doc
val failure_ablation : Experiment.failure_report -> Table.doc
val sketch_ablation : Experiment.sketch_point list -> Table.doc
val epochs : Epochsim.epoch_metrics list -> Table.doc
val lp_ablation : Experiment.lp_compare -> Table.doc

val figure_csv : Experiment.figure -> string
(** [nf,flows,packets,hp,rand,lb], one row per (type, volume point). *)

val table3_csv : Experiment.table3_row list -> string
(** [nf,hp_max,hp_min,rand_max,rand_min,lb_max,lb_min]. *)
