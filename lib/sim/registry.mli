(** Every experiment of the reproduction as data: one entry per paper
    artifact or ablation.  The bench's sections, [sdmctl exp]'s cases,
    the known and audited name lists and the CSV exports are all
    derived from {!all}; adding an experiment means adding one entry.
    A packet-level entry runs an {!Ablation.t}, a flow-level one a
    {!Flowlevel.t}: its outcome holds the probes' runs and one run per
    cell, and counts all their events. *)

type ctx = {
  flows : int;  (** flow population (the figures sweep their own) *)
  fast : bool;  (** reduced-scale run (bench [--fast]) *)
  seed : int;
  jobs : int;
  audit : bool;  (** packet-level rows under the online invariant audit *)
  corrupt_rate : float option;  (** ABL-CORRUPT: one rate instead of the sweep *)
  sweep_period : float option;
      (** ABL-CORRUPT: one sweep period instead of the sweep; 0 disables *)
}

type outcome = {
  doc : Table.doc;  (** the report *)
  csvs : (string * string) list;  (** file name, contents *)
  events : int;  (** simulator events processed, every run included *)
  hops : int;  (** router hops fast-forwarded (packet-level latency runs) *)
  runs : Pktsim.stats list;  (** the packet-level rows' runs, in row order *)
  flow_runs : (Sdm.Controller.t * Flowsim.result) list;
      (** the flow-level runs, probes first, with the plan each ran *)
  mismatch : string option;
      (** a failed differential oracle (warm/cold objective
          disagreement): the run must exit non-zero *)
  ledger : (clock:(unit -> float) -> Format.formatter -> string * string) option;
      (** wall-clock follow-up for the bench: prints bracketed timing
          lines and returns a named JSON record *)
}

type entry = {
  name : string;  (** [sdmctl exp NAME] *)
  title : string;  (** bench section title; its prefix up to [':'] keys the timings *)
  flows : int;  (** full-scale flows; 0 for the figures, which sweep their own *)
  fast_flows : int;  (** flows under [--fast] *)
  cap : int;  (** ceiling on [sdmctl exp --flows]; above it, exit 2 *)
  audited : bool;  (** [--audit] applies *)
  run : ctx -> outcome;
}

val all : entry list
(** In report order: FIG4, FIG5, TABLE3, then the ablations. *)

val summary_line : Sdm.Controller.config_summary -> Format.formatter -> unit
(** ["N entities; N policy rows; N candidate entries; N weight rows
    (N values)"], a whole line. *)

val configuration :
  Experiment.scenario -> seed:int -> flows:int ->
  (Table.doc * Sdm.Verify.violation list, string) result
(** Load-balanced enforcement on [flows] generated flows: its
    {!summary_line} and control-plane price ({!Controlplane.price}),
    and the static verifier's violations.  [exp config] and [sdmctl verify] add their
    own verdict lines. *)

val find : string -> entry option
val key : entry -> string
(** The title's prefix up to [':'], e.g. ["ABL-REOPT"]. *)
