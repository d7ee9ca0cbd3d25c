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
  audits : int option list;
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

let outcome ?(csvs = []) ?(hops = 0) ?(audits = []) ?mismatch ?ledger ~events doc =
  { doc; csvs; events; hops; audits; mismatch; ledger }

let entry ?(audited = false) ?cap name title (flows, fast_flows) run =
  { name; title; flows; fast_flows; cap = Option.value cap ~default:flows; audited; run }

let events (stats : Pktsim.stats list) =
  List.fold_left (fun acc s -> acc + s.Pktsim.events_processed) 0 stats

(* A packet-level sweep's outcome: its probe runs plus one stats record
   per row, every row's audit verdict included. *)
let sweep ?csvs ?mismatch ?ledger ~probe_events stats doc =
  outcome ?csvs ?mismatch ?ledger
    ~events:(probe_events + events stats)
    ~audits:(List.map Experiment.audit_violations stats)
    doc

let figure name title scenario =
  entry name title (0, 0) (fun { fast; seed; jobs; _ } ->
      let flow_counts = if fast then Some [ 30_000; 90_000; 150_000 ] else None in
      let fig = Experiment.run_figure scenario ?flow_counts ~seed ~jobs () in
      outcome ~events:fig.Experiment.fig_events
        ~csvs:[ (name ^ ".csv", Report.figure_csv fig) ]
        (Report.figure fig))

let table3 ?(csv = false) name title scenario =
  entry ~cap:max_int name title (300_000, 150_000) (fun { flows; seed; jobs; _ } ->
      let t = Experiment.run_table3 ~scenario ~flows ~seed ~jobs () in
      let rows = t.Experiment.t3_rows in
      outcome ~events:t.Experiment.t3_events
        ~csvs:(if csv then [ (name ^ ".csv", Report.table3_csv rows) ] else [])
        (Report.table3 rows))

(* Wall-clock warm-vs-cold re-solve latency per scenario, next to the
   deterministic pivot counts of the report it follows. *)
let reopt_ledger (r : Experiment.reopt_report) ~flows ~seed ~clock ppf =
  let scenario s =
    let name = Experiment.scenario_name s in
    let cold_ms, warm_ms = Experiment.reopt_solve_ms ~clock s ~flows ~seed () in
    Format.fprintf ppf "[ABL-REOPT %s: cold %.2f ms/solve, warm %.2f ms/solve]@." name
      cold_ms warm_ms;
    let steps = List.assoc name r.Experiment.rp_replays in
    let replay f = List.fold_left (fun acc s -> acc + f s) 0 steps in
    let row warm =
      List.find
        (fun (x : Experiment.reopt_row) ->
          x.Experiment.rp_scenario = name && x.Experiment.rp_warm = warm)
        r.Experiment.rp_rows
    in
    let cold = row false and warm = row true in
    Printf.sprintf
      "{\"name\": %S, \"routers\": %d, \"replay_steps\": %d, \"replay_cold_pivots\": \
       %d, \"replay_warm_pivots\": %d, \"cold_ms_per_solve\": %.3f, \
       \"warm_ms_per_solve\": %.3f, \"run_cold_pivots\": %d, \"run_warm_pivots\": %d, \
       \"run_warm_used\": %d, \"run_fallback\": %d}"
      name cold.Experiment.rp_routers (List.length steps)
      (replay (fun s -> s.Experiment.rs_cold_pivots))
      (replay (fun s -> s.Experiment.rs_warm_pivots))
      cold_ms warm_ms cold.Experiment.stats.Pktsim.reopt_pivots
      warm.Experiment.stats.Pktsim.reopt_pivots
      warm.Experiment.stats.Pktsim.reopt_warm_used
      warm.Experiment.stats.Pktsim.reopt_fallback
  in
  ( "reopt",
    Printf.sprintf "{\"scenarios\": [%s], \"agree_steps\": %d, \"total_steps\": %d}"
      (String.concat ", " (List.map scenario Experiment.[ Campus; Waxman ]))
      r.Experiment.rp_agree r.Experiment.rp_total )

(* The controller's dissemination volume and static verdict.  Its last
   line is left open: every caller ends a report with a newline. *)
let config { flows; seed; _ } =
  let deployment = Experiment.build_deployment Experiment.Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let traffic = Workload.measure workload in
  outcome ~events:0
    (match
       Sdm.Controller.configure deployment ~rules:workload.Workload.rules
         (Sdm.Controller.Load_balanced traffic)
     with
    | Ok ctl ->
      [
        (fun ppf ->
          Format.fprintf ppf "%a@." Sdm.Controller.pp_config_summary
            (Sdm.Controller.config_summary ctl));
        (fun ppf ->
          Format.fprintf ppf "%a@." Controlplane.pp_report (Controlplane.price ctl ~traffic));
        (fun ppf ->
          match Sdm.Verify.check ctl with
          | Ok () -> Format.fprintf ppf "static verification: configuration certified"
          | Error vs ->
            Format.fprintf ppf "static verification FAILED (%d violations)" (List.length vs));
      ]
    | Error e -> [ (fun ppf -> Format.fprintf ppf "configuration failed: %s" e) ])

let all =
  let open Experiment in
  [
    figure "fig4" "FIG4: campus topology (Figure 4)" Campus;
    figure "fig5" "FIG5: Waxman topology (Figure 5)" Waxman;
    table3 ~csv:true "table3" "TABLE3: load distribution, campus (Table III)" Campus;
    table3 "table3-waxman" "TABLE3-WAXMAN: load distribution, Waxman (supplementary)" Waxman;
    entry "k" "ABL-K: candidate-set size sensitivity" (120_000, 60_000)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_k ~flows ~seed ~jobs () in
        outcome ~events:r.k_events (Report.k_ablation r.k_points));
    entry ~cap:5_000 "cache" "ABL-CACHE: flow cache vs multi-field lookups (Sec. III.D)"
      (2_000, 500) (fun { flows; seed; _ } ->
        let s = ablation_cache ~flows ~seed () in
        outcome ~events:s.Pktsim.events_processed (Report.cache_ablation s));
    entry "cachesize" "ABL-CACHESIZE: flow-cache capacity vs lookups" (1_000, 300)
      (fun { flows; seed; jobs; _ } ->
        let points = ablation_cache_size ~flows ~seed ~jobs () in
        outcome
          ~events:(events (List.map (fun (p : cache_size_point) -> p.stats) points))
          (Report.cache_size_ablation points));
    entry ~cap:5_000 "frag" "ABL-FRAG: fragmentation vs label switching (Sec. III.E)"
      (2_000, 500) (fun { flows; seed; jobs; _ } ->
        let r = ablation_fragmentation ~flows ~seed ~jobs () in
        outcome ~events:(events [ r.with_labels; r.ip_over_ip ]) (Report.frag_ablation r));
    entry "fail" "ABL-FAIL: middlebox failure, failover vs re-optimization" (120_000, 60_000)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_failure ~flows ~seed ~jobs () in
        outcome ~events:r.fail_events (Report.failure_ablation r));
    entry ~audited:true "chaos" "ABL-CHAOS: in-run faults, detection-delay sweep" (800, 300)
      (fun { flows; seed; audit; jobs; _ } ->
        let r = ablation_chaos ~flows ~seed ~audit ~jobs () in
        sweep ~probe_events:r.chaos_probe_events
          (List.map (fun (x : chaos_row) -> x.stats) r.chaos_rows)
          (Report.chaos r));
    entry ~audited:true "live" "ABL-LIVE: live reconfiguration, control-loss sweep" (500, 300)
      (fun { flows; seed; audit; jobs; _ } ->
        let r = ablation_live ~flows ~seed ~audit ~jobs () in
        sweep ~probe_events:r.live_probe_events
          ~csvs:
            [ ("abl_live.csv", Report.live_csv r);
              ("abl_live_devices.csv", Report.live_devices_csv r) ]
          (List.map (fun (x : live_row) -> x.stats) r.live_rows)
          (Report.live r));
    entry ~audited:true "quorum" "ABL-QUORUM: replicated controller under chaos" (400, 200)
      (fun { flows; seed; audit; jobs; _ } ->
        let r = ablation_quorum ~flows ~seed ~audit ~jobs () in
        sweep ~probe_events:r.q_probe_events
          ~csvs:[ ("abl_quorum.csv", Report.quorum_csv r) ]
          (List.map (fun (x : quorum_row) -> x.stats) r.q_rows)
          (Report.quorum r));
    entry ~audited:true "corrupt" "ABL-CORRUPT: silent corruption vs anti-entropy repair"
      (400, 200) (fun { flows; seed; audit; jobs; corrupt_rate; sweep_period; _ } ->
        let rates = Option.map (fun r -> [ r ]) corrupt_rate in
        let sweep_periods =
          Option.map (fun p -> if p = 0.0 then [ None ] else [ Some p ]) sweep_period
        in
        let r = ablation_corrupt ~flows ~seed ~audit ?rates ?sweep_periods ~jobs () in
        sweep ~probe_events:r.c_probe_events
          ~csvs:[ ("abl_corrupt.csv", Report.corrupt_csv r) ]
          (List.map (fun (x : corrupt_row) -> x.stats) r.c_rows)
          (Report.corrupt r));
    (* 400 flows even in fast mode: with fewer flows the measured
       traffic support keeps growing between epochs and the in-run warm
       path falls back on every epoch of the small campus topology,
       hiding the pivot savings the sweep exists to show. *)
    entry ~audited:true "reopt" "ABL-REOPT: warm-started re-optimization vs cold re-solve"
      (400, 400) (fun { flows; seed; audit; jobs; _ } ->
        let r = ablation_reopt ~flows ~seed ~audit ~jobs () in
        (* A warm optimum disagreeing with the cold solve is a solver
           bug, not an enforcement-invariant violation: it fails the
           run whether or not it was audited. *)
        let mismatch =
          if r.rp_agree = r.rp_total then None
          else
            Some
              (Printf.sprintf "reopt: warm/cold objective mismatch (%d/%d steps)" r.rp_agree
                 r.rp_total)
        in
        sweep ?mismatch ~ledger:(reopt_ledger r ~flows ~seed)
          ~probe_events:(List.fold_left (fun acc i -> acc + i.ri_probe_events) 0 r.rp_infos)
          ~csvs:
            [ ("abl_reopt.csv", Report.reopt_csv r);
              ("abl_reopt_steps.csv", Report.reopt_steps_csv r) ]
          (List.map (fun (x : reopt_row) -> x.stats) r.rp_rows)
          (Report.reopt r));
    entry "epoch" "ABL-EPOCH: adaptation across measurement epochs" (60_000, 30_000)
      (fun { flows; seed; jobs; _ } ->
        let deployment = build_deployment Campus ~seed in
        let r = Epochsim.run ~deployment ~base_flows:flows ~seed ~jobs () in
        outcome ~events:r.Epochsim.ep_events (Report.epochs r.Epochsim.ep_rows));
    entry "sketch" "ABL-SKETCH: Count-Min sketched measurement vs exact" (120_000, 60_000)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_sketch ~flows ~seed ~jobs () in
        outcome ~events:r.sk_events (Report.sketch_ablation r.sk_points));
    entry "lat" "ABL-LAT: end-to-end latency overhead of enforcement" (1_000, 300)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_latency ~flows ~seed ~jobs () in
        let runs = [ r.enforced; r.plain ] in
        outcome ~events:(events runs)
          ~hops:(List.fold_left (fun acc s -> acc + s.Pktsim.router_hops) 0 runs)
          (Report.latency_ablation r));
    entry "queue" "ABL-QUEUE: middlebox queueing, HP vs LB latency" (800, 300)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_queue ~flows ~seed ~jobs () in
        outcome ~events:r.events_processed ~hops:r.router_hops (Report.queue_ablation r));
    entry ~cap:10_000 "lp" "ABL-LP: Eq.(1) exact vs Eq.(2) simplified" (5_000, 2_000)
      (fun { flows; seed; jobs; _ } ->
        let r = ablation_lp ~flows ~seed ~jobs () in
        outcome ~events:r.lp_events (Report.lp_ablation r));
    entry "config" "CONFIG: controller dissemination volume (campus, LB)" (30_000, 30_000)
      config;
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let key e = String.sub e.title 0 (String.index e.title ':')
