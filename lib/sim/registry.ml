type ctx = {
  flows : int;
  fast : bool;
  seed : int;
  jobs : int;
  audit : bool;
  corrupt_rate : float option;
  sweep_period : float option;
}

type outcome = {
  doc : Table.doc;
  csvs : (string * string) list;
  events : int;
  hops : int;
  runs : Pktsim.stats list;
  flow_runs : (Sdm.Controller.t * Flowsim.result) list;
  mismatch : string option;
  ledger : (clock:(unit -> float) -> Format.formatter -> string * string) option;
}

type entry = {
  name : string;
  title : string;
  flows : int;
  fast_flows : int;
  cap : int;
  audited : bool;
  run : ctx -> outcome;
}

let outcome ?(csvs = []) ?(hops = 0) ?(runs = []) ?(flow_runs = []) ?mismatch ?ledger
    ~events doc =
  { doc; csvs; events; hops; runs; flow_runs; mismatch; ledger }

let entry ?(audited = false) ?cap name title (flows, fast_flows) run =
  { name; title; flows; fast_flows; cap = Option.value cap ~default:flows; audited; run }

(* A packet-level ablation's outcome: one run per cell, its probes
   counted in the events; [hops] for the reports that print them. *)
let sweep_outcome ?(hops = false) ?mismatch ?ledger ~jobs (a : _ Ablation.t) =
  let rows = Ablation.sweep ~jobs a in
  let runs = List.map snd rows in
  let all = Ablation.probes a @ runs in
  let doc, csvs = a.report rows in
  outcome ~csvs ~runs ?mismatch
    ?ledger:(Option.map (fun l -> l rows) ledger)
    ~events:(Experiment.sum (fun s -> s.Pktsim.events_processed) all)
    ~hops:(if hops then Experiment.sum (fun s -> s.Pktsim.router_hops) all else 0)
    doc

let packet ?audited ?cap ?hops name title flows ablation =
  entry ?audited ?cap name title flows (fun ctx ->
      sweep_outcome ?hops ~jobs:ctx.jobs (ablation ctx))

(* A flow-level experiment's outcome: its probes, then one run per
   cell. *)
let flow ?cap name title flows experiment =
  entry ?cap name title flows (fun ctx ->
      let (e : _ Flowlevel.t) = experiment ctx in
      let rows = Flowlevel.sweep ~jobs:ctx.jobs e.sweeps in
      let runs = e.probes @ List.map (fun (_, plan, r) -> (plan, r)) rows in
      let doc, csvs = e.report rows in
      outcome ~csvs ~flow_runs:runs
        ~events:(Experiment.sum (fun (_, r) -> r.Flowsim.events) runs)
        doc)

let figure name title topology =
  flow name title (0, 0) (fun { fast; seed; jobs; _ } ->
      let flow_counts = if fast then Some [ 30_000; 90_000; 150_000 ] else None in
      Flowlevel.figure topology ?flow_counts ~seed ~jobs ~file:(name ^ ".csv") ())

let table3 ?(csv = false) name title topology =
  flow ~cap:max_int name title (300_000, 150_000) (fun { flows; seed; _ } ->
      let file = if csv then Some (name ^ ".csv") else None in
      Flowlevel.table3 topology ?file ~flows ~seed ())

(* Wall-clock warm-vs-cold re-solve latency per scenario, next to the
   deterministic pivot counts of the report it follows. *)
let reopt_ledger replays ~flows ~seed rows ~clock ppf =
  let scenario s =
    let name = Experiment.scenario_name s in
    let cold_ms, warm_ms = Experiment.reopt_solve_ms ~clock s ~flows ~seed () in
    Format.fprintf ppf "[ABL-REOPT %s: cold %.2f ms/solve, warm %.2f ms/solve]@." name
      cold_ms warm_ms;
    let steps = List.assoc name replays in
    let replay f = Experiment.sum f steps in
    let row warm = List.find (fun ((n, _, w), _) -> n = name && w = warm) rows in
    let (_, routers, _), cold = row false and _, warm = row true in
    (* Pivots are phase 2; each [_phase1] count is the phase-1 and
       drive-out work beside it. *)
    Printf.sprintf
      "{\"name\": %S, \"routers\": %d, \"replay_steps\": %d, \"replay_cold_pivots\": \
       %d, \"replay_cold_phase1\": %d, \"replay_warm_pivots\": %d, \
       \"replay_warm_phase1\": %d, \"cold_ms_per_solve\": %.3f, \
       \"warm_ms_per_solve\": %.3f, \"run_cold_pivots\": %d, \"run_cold_phase1\": %d, \
       \"run_warm_pivots\": %d, \"run_warm_phase1\": %d, \"run_warm_used\": %d, \
       \"run_fallback\": %d}"
      name routers (List.length steps)
      (replay (fun s -> s.Experiment.rs_cold_pivots))
      (replay (fun s -> s.Experiment.rs_cold_phase1))
      (replay (fun s -> s.Experiment.rs_warm_pivots))
      (replay (fun s -> s.Experiment.rs_warm_phase1))
      cold_ms warm_ms cold.Pktsim.reopt_pivots cold.Pktsim.reopt_phase1_pivots
      warm.Pktsim.reopt_pivots warm.Pktsim.reopt_phase1_pivots
      warm.Pktsim.reopt_warm_used warm.Pktsim.reopt_fallback
  in
  let agree, total = Ablation.agreement replays in
  ( "reopt",
    Printf.sprintf "{\"scenarios\": [%s], \"agree_steps\": %d, \"total_steps\": %d}"
      (String.concat ", " (List.map scenario Experiment.[ Campus; Waxman ]))
      agree total )

let summary_line (s : Sdm.Controller.config_summary) =
  Table.line "%d entities; %d policy rows; %d candidate entries; %d weight rows (%d values)"
    s.entities s.policy_rows s.candidate_entries s.weight_rows s.weight_cells

(* The control-plane price of a configuration, then a blank line. *)
let price_lines (p : Controlplane.report) =
  Table.
    [ line "controller at router %d" p.controller_router;
      line "devices managed: %d (an SDN controller would manage all %d routers, per flow)"
        p.devices_managed p.routers_total;
      line "config push: %d messages, %d bytes, %d byte-hops, done in %.1f time units"
        p.config_messages p.config_bytes p.config_byte_hops p.time_to_configure;
      line "measurement reports: %d bytes per epoch" p.report_bytes_per_epoch;
      blank ]

let configuration scenario ~seed ~flows =
  let deployment = Experiment.build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let traffic = Workload.measure workload in
  let report ctl =
    ( summary_line (Sdm.Controller.config_summary ctl)
      :: price_lines (Controlplane.price ctl ~traffic),
      match Sdm.Verify.check ctl with Ok () -> [] | Error vs -> vs )
  in
  Result.map report
    (Sdm.Controller.configure deployment ~rules:workload.Workload.rules
       (Sdm.Controller.Load_balanced traffic))

(* The controller's dissemination volume and static verdict.  Its last
   line is left open: every caller ends a report with a newline. *)
let config { flows; seed; _ } =
  outcome ~events:0
    (match configuration Experiment.Campus ~seed ~flows with
    | Ok (doc, []) ->
      doc @ [ (fun ppf -> Format.fprintf ppf "static verification: configuration certified") ]
    | Ok (doc, vs) ->
      doc
      @ [ (fun ppf ->
            Format.fprintf ppf "static verification FAILED (%d violations)" (List.length vs)) ]
    | Error e -> [ (fun ppf -> Format.fprintf ppf "configuration failed: %s" e) ])

let all =
  let open Experiment in
  [
    figure "fig4" "FIG4: campus topology (Figure 4)" Campus;
    figure "fig5" "FIG5: Waxman topology (Figure 5)" Waxman;
    table3 ~csv:true "table3" "TABLE3: load distribution, campus (Table III)" Campus;
    table3 "table3-waxman" "TABLE3-WAXMAN: load distribution, Waxman (supplementary)" Waxman;
    flow "k" "ABL-K: candidate-set size sensitivity" (120_000, 60_000)
      (fun { flows; seed; _ } -> Flowlevel.k ~flows ~seed);
    packet ~cap:5_000 "cache" "ABL-CACHE: flow cache vs multi-field lookups (Sec. III.D)"
      (2_000, 500) (fun { flows; seed; _ } -> Ablation.cache ~flows ~seed);
    packet "cachesize" "ABL-CACHESIZE: flow-cache capacity vs lookups" (1_000, 300)
      (fun { flows; seed; _ } -> Ablation.cachesize ~flows ~seed);
    packet ~cap:5_000 "frag" "ABL-FRAG: fragmentation vs label switching (Sec. III.E)"
      (2_000, 500) (fun { flows; seed; _ } -> Ablation.frag ~flows ~seed);
    flow "fail" "ABL-FAIL: middlebox failure, failover vs re-optimization" (120_000, 60_000)
      (fun { flows; seed; _ } -> Flowlevel.fail ~flows ~seed);
    packet ~audited:true "chaos" "ABL-CHAOS: in-run faults, detection-delay sweep" (800, 300)
      (fun { flows; seed; audit; _ } -> Ablation.chaos ~flows ~seed ~audit);
    packet ~audited:true "live" "ABL-LIVE: live reconfiguration, control-loss sweep" (500, 300)
      (fun { flows; seed; audit; jobs; _ } -> Ablation.live ~flows ~seed ~audit ~jobs);
    packet ~audited:true "quorum" "ABL-QUORUM: replicated controller under chaos" (400, 200)
      (fun { flows; seed; audit; _ } -> Ablation.quorum ~flows ~seed ~audit);
    packet ~audited:true "corrupt" "ABL-CORRUPT: silent corruption vs anti-entropy repair"
      (400, 200) (fun { flows; seed; audit; corrupt_rate; sweep_period; _ } ->
        Ablation.corrupt ~flows ~seed ~audit ~rate:corrupt_rate ~sweep_period);
    (* 400 flows even in fast mode: with fewer flows the measured
       traffic support keeps growing between epochs and the in-run warm
       path falls back on every epoch of the small campus topology,
       hiding the pivot savings the sweep exists to show. *)
    entry ~audited:true "reopt" "ABL-REOPT: warm-started re-optimization vs cold re-solve"
      (400, 400) (fun { flows; seed; audit; jobs; _ } ->
        let a, replays = Ablation.reopt ~flows ~seed ~audit ~jobs in
        (* A warm optimum disagreeing with the cold solve is a solver
           bug, not an enforcement-invariant violation: it fails the
           run whether or not it was audited. *)
        let agree, total = Ablation.agreement replays in
        let mismatch =
          Printf.sprintf "reopt: warm/cold objective mismatch (%d/%d steps)" agree total
        in
        sweep_outcome ~jobs ?mismatch:(if agree = total then None else Some mismatch)
          ~ledger:(reopt_ledger replays ~flows ~seed) a);
    flow "epoch" "ABL-EPOCH: adaptation across measurement epochs" (60_000, 30_000)
      (fun { flows; seed; jobs; _ } -> Flowlevel.epoch ~flows ~seed ~jobs);
    flow "sketch" "ABL-SKETCH: Count-Min sketched measurement vs exact" (120_000, 60_000)
      (fun { flows; seed; _ } -> Flowlevel.sketch ~flows ~seed);
    packet ~hops:true "lat" "ABL-LAT: end-to-end latency overhead of enforcement" (1_000, 300)
      (fun { flows; seed; _ } -> Ablation.lat ~flows ~seed);
    packet ~hops:true "queue" "ABL-QUEUE: middlebox queueing, HP vs LB latency" (800, 300)
      (fun { flows; seed; _ } -> Ablation.queue ~flows ~seed);
    flow ~cap:10_000 "lp" "ABL-LP: Eq.(1) exact vs Eq.(2) simplified" (5_000, 2_000)
      (fun { flows; seed; _ } -> Flowlevel.lp ~flows ~seed);
    entry "config" "CONFIG: controller dissemination volume (campus, LB)" (30_000, 30_000)
      config;
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let key e = String.sub e.title 0 (String.index e.title ':')
