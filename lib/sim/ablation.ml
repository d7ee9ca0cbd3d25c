(* The packet-level ablations as data: a scenario, the cells that vary
   it, and a report over the (label, stats) rows the cells produce. *)

module T = Table

type scenario = {
  deployment : Sdm.Deployment.t;
  workload : Workload.t;
  plan : Sdm.Controller.t;
  probes : Pktsim.stats list;
  config : Pktsim.config;
}

type 'k cell = 'k * (scenario -> scenario)
type 'k report = ('k * Pktsim.stats) list -> Table.doc * (string * string) list
type 'k t = { sweeps : (scenario * 'k cell list) list; report : 'k report }

let run s = Pktsim.run ~config:s.config ~controller:s.plan ~workload:s.workload ()

(* One thunk per cell of every scenario, in one fan-out: rows come back
   in cell order whatever [jobs] is. *)
let fan ~run ?jobs sweeps =
  Experiment.fan_out ?jobs
    (List.concat_map (fun (s, cells) -> List.map (fun (k, f) () -> (k, run (f s))) cells) sweeps)

let sweep ?jobs t = fan ~run ?jobs t.sweeps

let probes t = List.concat_map (fun (s, _) -> s.probes) t.sweeps

let filter keep t =
  let keep_cells (s, cells) = (s, List.filter (fun (k, _) -> keep k) cells) in
  { t with sweeps = List.map keep_cells t.sweeps }

let audit_violations (s : Pktsim.stats) =
  Option.map (fun (r : Audit.Checker.report) -> r.violations) s.audit_report

let max_load (s : Pktsim.stats) = Array.fold_left Stdlib.max 0.0 s.loads

(* Multi-field lookups per injected packet. *)
let lookup_fraction (s : Pktsim.stats) =
  float_of_int s.multi_field_lookups /. float_of_int (max 1 s.injected_packets)

(* ---- Building blocks ------------------------------------------------ *)

let scenario ?(topology = Experiment.Campus) plan ~flows ~seed =
  let deployment = Experiment.build_deployment topology ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let plan = plan deployment workload in
  { deployment; workload; plan; probes = []; config = Pktsim.default_config }

(* The fault-free run under the plan that the sweep is calibrated
   against; call before changing the config. *)
let probed s = { s with probes = [ run s ] }
let probe s = List.hd s.probes
let with_config f s = { s with config = f s.config }
let lb_campus = scenario Experiment.load_balanced
let hp_campus = scenario Experiment.hot_potato

(* Epochs every [1/share] of the probe's horizon, the re-push loop four
   times as often: builders and report preambles both read it. *)
let cadence ?(share = 5.0) (probe : Pktsim.stats) =
  let epoch = probe.sim_time /. share in
  { Pktsim.default_live with epoch_interval = epoch; reconcile_interval = epoch /. 4.0 }

(* Faults under Bernoulli control-packet loss, one loss stream per
   root seed. *)
let faults ~seed ~control_loss events =
  Some (Fault.Schedule.make ~control_loss ~loss_seed:(seed + 3) events)

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
let stat ?csv w head f = T.col ?csv ~w head (T.Int (fun (_, s) -> f s))

let packets () =
  [ stat 9 "injected" (fun s -> s.Pktsim.injected_packets);
    stat 10 "delivered" (fun s -> s.Pktsim.delivered_packets) ]

let max_load_col () = T.col ~w:10 "max load" (T.Load (fun (_, s) -> max_load s))
let audit_col () = T.col ~w:6 "audit" (T.Audit (fun (_, s) -> audit_violations s))

let engine_events runs =
  T.line "engine events: %d processed, %d router hops fast-forwarded"
    (Experiment.sum (fun s -> s.Pktsim.events_processed) runs)
    (Experiment.sum (fun s -> s.Pktsim.router_hops) runs)

(* ---- ABL-CACHE, ABL-CACHESIZE, ABL-FRAG: Sec. III.D and III.E -------- *)

(* A report of one title line, the [blocks] over the rows, no CSV. *)
let titled title blocks rows = (T.line "%s" title :: blocks rows, [])

let cache ~flows ~seed =
  let count = stat 0 in
  { sweeps = [ (lb_campus ~flows ~seed, [ ((), Fun.id) ]) ];
    report =
      titled "=== Ablation: flow cache vs multi-field lookups (Sec. III.D) ===" (fun rows ->
          T.[ fields
                [ count "packets injected:" (fun s -> s.Pktsim.injected_packets);
                  count "multi-field lookups:" (fun s -> s.Pktsim.multi_field_lookups);
                  count "cache hits:" (fun s -> s.Pktsim.cache_hits);
                  count "negative hits:" (fun s -> s.Pktsim.cache_negative_hits);
                  col "lookup fraction:" (Float (4, 4, fun (_, s) -> lookup_fraction s)) ]
                (List.hd rows) ]) }

let cachesize ~flows ~seed =
  let cell capacity =
    (capacity, with_config (fun c -> { c with Pktsim.cache_capacity = capacity }))
  in
  let capacity (c, _) = Option.fold ~none:"unbounded" ~some:string_of_int c in
  { sweeps = [ (lb_campus ~flows ~seed, List.map cell [ Some 16; Some 64; Some 256; None ]) ];
    report =
      titled "=== Ablation: flow-cache capacity vs multi-field lookups ===" (fun rows ->
          T.[ grid
                [ col ~w:10 "capacity" (Str capacity);
                  col ~w:18 "lookup fraction" (Float (4, 4, fun (_, s) -> lookup_fraction s));
                  stat 12 "evictions" (fun s -> s.Pktsim.cache_evictions) ]
                rows ]) }

let frag ~flows ~seed =
  let cell label_switching =
    (label_switching, with_config (fun c -> { c with Pktsim.label_switching }))
  in
  let on labels head f = T.col head (T.Int (fun rows -> f (List.assoc labels rows))) in
  let fragments (s : Pktsim.stats) = s.fragments_created in
  { sweeps = [ (lb_campus ~flows ~seed, [ cell true; cell false ]) ];
    report =
      titled "=== Ablation: fragmentation, IP-over-IP vs label switching (Sec. III.E) ==="
        (fun rows ->
          T.[ fields
                [ on false "extra fragments, IP-over-IP only:" fragments;
                  on true "extra fragments, with label switching:" fragments;
                  on true "tunneled legs:" (fun s -> s.Pktsim.tunneled_packets);
                  on true "label-switched legs:" (fun s -> s.Pktsim.label_switched_packets) ]
                rows ]) }

(* ---- ABL-LAT, ABL-QUEUE: what enforcement and imbalance cost in time -- *)

let to_hp s = { s with plan = Experiment.hot_potato s.deployment s.workload }
let latency ~w head f = T.col ~w head (T.Float (2, 2, fun (_, s) -> f s))
let mean label rows = (List.assoc label rows).Pktsim.latency_mean

let lat ~flows ~seed =
  let plain s = to_hp { s with workload = { s.workload with Workload.rules = [] } } in
  { sweeps = [ (lb_campus ~flows ~seed, [ ("enforced", Fun.id); ("plain", plain) ]) ];
    report =
      titled "=== Ablation: end-to-end latency with/without enforcement (campus, LB) ==="
        (fun rows ->
          T.[ grid
                [ col ~w:12 "" (Str fst);
                  latency ~w:10 "mean" (fun s -> s.Pktsim.latency_mean);
                  latency ~w:10 "p50" (fun s -> s.Pktsim.latency_p50);
                  latency ~w:10 "p99" (fun s -> s.Pktsim.latency_p99) ]
                rows;
              line "mean enforcement overhead: %.2fx"
                (if mean "plain" rows > 0.0 then mean "enforced" rows /. mean "plain" rows
                 else 1.0);
              engine_events (List.map snd rows) ]) }

let service_rate (probe : Pktsim.stats) =
  2.0 *. Array.fold_left max 1.0 probe.loads /. probe.sim_time

let queue ~flows ~seed =
  let s = probed (lb_campus ~flows ~seed) in
  let probe = probe s in
  let rate = service_rate probe in
  (* Busiest box's work time over the span it was receiving. *)
  let util (s : Pktsim.stats) = Array.fold_left max 0.0 s.loads /. rate /. probe.sim_time in
  { sweeps =
      [ ( with_config (fun c -> { c with Pktsim.service_rate = rate }) s,
          [ ("HP", to_hp); ("LB", Fun.id) ] ) ];
    report =
      titled "=== Ablation: middlebox queueing, HP vs LB latency (campus) ===" (fun rows ->
          T.[ line "service rate: %.1f pkt/unit per middlebox" rate;
              grid
                [ col ~w:6 "" (Str fst);
                  latency ~w:12 "util(max)" util;
                  latency ~w:14 "latency mean" (fun s -> s.Pktsim.latency_mean);
                  latency ~w:14 "latency p99" (fun s -> s.Pktsim.latency_p99) ]
                rows;
              engine_events (probe :: List.map snd rows) ]) }

(* ---- ABL-CHAOS: in-run faults, detection-delay sweep ----------------- *)

let chaos_delays = [ 2.0; 10.0; 40.0 ]
let chaos_victim_nf = Policy.Action.IDS
let chaos_control_loss = 0.02

(* Shares of the probe horizon: the victim's crash, then a link's
   failure and restoration. *)
let chaos_crash, chaos_link_fail, chaos_link_restore = (0.25, 0.45, 0.65)

(* A gateway-core link: campus cores are dual-homed to both gateways,
   so the graph stays connected and OSPF reroutes around the outage. *)
let gateway_link (d : Sdm.Deployment.t) =
  let topo = d.topo in
  match Netgraph.Topology.gateways topo with
  | [] -> None
  | gw :: _ ->
    List.find_map
      (fun { Netgraph.Graph.dst; _ } ->
        match Netgraph.Topology.role topo dst with
        | Netgraph.Topology.Core -> Some (gw, dst)
        | _ -> None)
      (Netgraph.Graph.neighbors topo.graph gw)

let chaos_report ~victim ~survivors ~link ~(probe : Pktsim.stats) rows =
  let at share = share *. probe.sim_time in
  (* Time from the crash to the last violation: how long the system
     bled before failover absorbed the fault. *)
  let recovery (_, (s : Pktsim.stats)) =
    if s.policy_violations = 0 then 0.0
    else Stdlib.max 0.0 (s.last_violation_time -. at chaos_crash)
  in
  let max_surviving (_, (s : Pktsim.stats)) =
    List.fold_left (fun acc id -> Stdlib.max acc s.loads.(id)) 0.0 survivors
  in
  let detect ((_, d), _) = if Float.is_integer d then Printf.sprintf "%.0f" d else "never" in
  ( T.line "=== ABL-CHAOS: in-run faults, detection-delay sweep (campus) ==="
    :: T.line "crash: mbox%d (%s) at t=%.1f, never restored" victim
         (Policy.Action.nf_to_string chaos_victim_nf) (at chaos_crash)
    :: Option.fold ~none:[]
         ~some:(fun (u, v) ->
           [ T.line "link: %d-%d fails at t=%.1f, restored at t=%.1f" u v
               (at chaos_link_fail) (at chaos_link_restore) ])
         link
    @ [ T.line "control-packet loss: %s (masked by retransmission)" (pct chaos_control_loss);
        T.grid
          (T.[ col ~w:(-16) "mode" (Str (fun ((mode, _), _) -> mode));
               col ~w:7 "detect" (Str detect) ]
          @ packets ()
          @ [ stat 8 "dropped" (fun s -> s.Pktsim.dropped_packets);
              stat 10 "violating" (fun s -> s.Pktsim.policy_violations);
              stat 8 "retries" (fun s -> s.Pktsim.control_retries);
              T.col ~w:9 "recovery" (T.Float (1, 3, recovery));
              T.col ~w:14 "max surviving" (T.Load max_surviving);
              audit_col () ])
          rows ],
    [] )

let chaos ~flows ~seed ~audit =
  let s = probed (lb_campus ~flows ~seed) in
  let probe = probe s in
  let boxes = Sdm.Deployment.middleboxes_of s.deployment chaos_victim_nf in
  let victim = Experiment.busiest boxes probe.loads in
  let link = gateway_link s.deployment in
  let at share = share *. probe.sim_time in
  let events =
    Fault.Schedule.{ at = at chaos_crash; what = Mbox_crash victim }
    :: Option.fold ~none:[]
         ~some:(fun (u, v) ->
           Fault.Schedule.
             [ { at = at chaos_link_fail; what = Link_fail (u, v) };
               { at = at chaos_link_restore; what = Link_restore (u, v) } ])
         link
  in
  let faults = faults ~seed ~control_loss:chaos_control_loss events in
  let s = with_config (fun c -> { c with faults; audit }) s in
  let hp = Experiment.hot_potato s.deployment s.workload in
  let cell mode plan ~failover detection_delay =
    ( (mode, if failover then detection_delay else infinity),
      fun s -> { s with plan; config = { s.config with detection_delay; failover } } )
  in
  { sweeps =
      [ ( s,
          List.concat_map
            (fun d ->
              [ cell "HP+failover" hp ~failover:true d;
                cell "LB+failover" s.plan ~failover:true d ])
            chaos_delays
          @ [ cell "LB, no failover" s.plan ~failover:false 0.0 ] ) ];
    report =
      chaos_report ~victim ~link ~probe
        ~survivors:
          (List.filter (( <> ) victim) (List.map (fun (m : Mbox.Middlebox.t) -> m.id) boxes)) }

(* ---- ABL-LIVE: live reconfiguration, control-loss sweep -------------- *)

let live_losses = [ 0.0; 0.02; 0.10 ]

let live_columns =
  T.[ text ~w:8 "loss" (Str (fun (loss, _) -> pct loss)); csv "loss" (Float (2, 2, fst)) ]
  @ packets ()
  @ [ stat 10 "violating" (fun s -> s.Pktsim.policy_violations);
      stat 9 "versions" (fun s -> s.Pktsim.final_config_version);
      stat 7 "pushes" (fun s -> s.Pktsim.config_pushes);
      stat 6 "acks" (fun s -> s.Pktsim.config_acks);
      stat 5 "lost" (fun s -> s.Pktsim.config_lost);
      stat 9 "degraded" (fun s -> s.Pktsim.config_degraded);
      stat 6 "stale" (fun s -> s.Pktsim.stale_devices);
      T.csv "bytes" (T.Int (fun (_, s) -> s.Pktsim.config_bytes));
      max_load_col ();
      audit_col () ]

(* Rows (stats, device index): proxies first, then middleboxes. *)
let device_columns ~n_proxies =
  let device f = T.Int (fun ((s : Pktsim.stats), i) -> f s i) in
  T.[ col ~w:(-10) "device"
        (Str
           (fun (_, i) ->
             if i < n_proxies then Printf.sprintf "proxy%d" i
             else Printf.sprintf "mbox%d" (i - n_proxies)));
      col ~w:8 "version" (device (fun s i -> s.entity_config_version.(i)));
      col ~w:5 "lag"
        (device (fun s i -> s.final_config_version - s.entity_config_version.(i)));
      col ~w:8 "retries" (device (fun s i -> s.entity_control_retries.(i)));
      col ~w:5 "lost" (device (fun s i -> s.entity_control_lost.(i))) ]

let live_report ~n_proxies ~(stale : Pktsim.stats) ~clairvoyant rows =
  let live = cadence stale in
  (* Per-device attribution comes from the lossiest row — the one where
     retries and version lag actually have something to show. *)
  let devices =
    match rows with
    | [] -> []
    | first :: _ ->
      let _, (s : Pktsim.stats) =
        List.fold_left (fun b r -> if fst r > fst b then r else b) first rows
      in
      List.init (Array.length s.entity_config_version) (fun i -> (s, i))
  in
  ( T.[ line "=== ABL-LIVE: live reconfiguration, control-loss sweep (campus) ===";
        line "epoch %.1f, reconcile %.1f; stale HP max %s, clairvoyant LB max %s"
          live.epoch_interval live.reconcile_interval (millions (max_load stale))
          (millions (max_load clairvoyant));
        grid live_columns rows;
        blank;
        line "per device (lossiest row):";
        grid (device_columns ~n_proxies) devices ],
    [ ("abl_live.csv", T.to_csv live_columns rows);
      ("abl_live_devices.csv", T.to_csv (device_columns ~n_proxies) devices) ] )

let live ~flows ~seed ~audit ~jobs =
  (* The probe under the stale hot-potato plan fixes the epochs and is
     the baseline the live rows should beat; the clairvoyant run (LB
     on the whole traffic matrix) is the best any measurement-driven
     loop can converge to. *)
  let s = hp_campus ~flows ~seed in
  let stale, clairvoyant =
    Experiment.fan_out2 ~jobs
      (fun () -> run s)
      (fun () -> run { s with plan = Experiment.load_balanced s.deployment s.workload })
  in
  let live = Some (cadence stale) in
  let s = { s with probes = [ stale; clairvoyant ]; config = { s.config with live; audit } } in
  (* loss = 0 still goes through the fault plumbing so the control
     channel is exercised end to end. *)
  let cell control_loss =
    (control_loss, with_config (fun c -> { c with faults = faults ~seed ~control_loss [] }))
  in
  { sweeps = [ (s, List.map cell live_losses) ];
    report = live_report ~n_proxies:(Array.length s.deployment.proxies) ~stale ~clairvoyant }

(* ---- ABL-QUORUM: replicated controller under chaos ------------------- *)

let quorum_replicas = 3

(* Leader crash, partition and heal, as shares of the probe horizon. *)
let quorum_times horizon = (0.3 *. horizon, 0.35 *. horizon, 0.7 *. horizon)

let quorum_columns =
  let replicas (_, (s : Pktsim.stats)) =
    String.concat "/" (List.map string_of_int (Array.to_list s.replica_versions))
  in
  T.[ col ~w:(-13) "scenario" (Str (fun ((name, _), _) -> name));
      text ~w:5 "loss" (Str (fun ((_, loss), _) -> pct loss));
      csv "loss" (Float (2, 2, fun ((_, loss), _) -> loss)) ]
  @ packets ()
  @ [ T.csv "violating" (T.Int (fun (_, s) -> s.Pktsim.policy_violations));
      stat 9 "versions" (fun s -> s.Pktsim.final_config_version);
      stat 7 "rounds" (fun s -> s.Pktsim.quorum_rounds);
      stat 8 "commits" (fun s -> s.Pktsim.quorum_commits);
      stat 7 "aborts" (fun s -> s.Pktsim.quorum_aborts);
      stat 6 "msgs" (fun s -> s.Pktsim.quorum_msgs);
      stat 6 "lost" (fun s -> s.Pktsim.quorum_lost);
      stat ~csv:"elections" 6 "elect" (fun s -> s.Pktsim.leader_changes);
      stat 9 "degraded" (fun s -> s.Pktsim.config_degraded);
      stat 6 "stale" (fun s -> s.Pktsim.stale_devices);
      (* Versions that reached the staged window without a quorum
         commit — the headline safety number; always 0. *)
      stat ~csv:"uncommitted" 6 "uncomm" (fun s ->
          s.Pktsim.reoptimizations - s.Pktsim.quorum_commits);
      T.col ~csv:"replica_versions" ~w:12 "replicas" (T.Str replicas);
      audit_col () ]

let quorum_report ~leader_router ~(probe : Pktsim.stats) rows =
  let live = cadence probe in
  let crash_at, partition_at, heal_at = quorum_times probe.sim_time in
  ( T.[ line "=== ABL-QUORUM: replicated controller under chaos (campus) ===";
        line "%d replicas (majority quorum), leader at router %d; epoch %.1f, reconcile %.1f"
          quorum_replicas leader_router live.epoch_interval live.reconcile_interval;
        line "leader crash at %.1f; partition %.1f-%.1f; probe %d events" crash_at
          partition_at heal_at probe.events_processed;
        grid quorum_columns rows ],
    [ ("abl_quorum.csv", T.to_csv quorum_columns rows) ] )

let quorum ~flows ~seed ~audit =
  let s = probed (hp_campus ~flows ~seed) in
  let probe = probe s in
  let crash_at, partition_at, heal_at = quorum_times probe.sim_time in
  let leader = Controlplane.default_router s.deployment in
  (* Split brain: cut every link of the lead replica's router, leaving
     the leader alone on the minority side while the two standbys (and
     most devices) stay connected on the other. *)
  let on_leader_links at what =
    List.map
      (fun { Netgraph.Graph.dst; _ } -> Fault.Schedule.{ at; what = what (leader, dst) })
      (Netgraph.Graph.neighbors s.deployment.topo.graph leader)
  in
  let cell name control_loss events =
    ( (name, control_loss),
      with_config (fun c -> { c with faults = faults ~seed ~control_loss events }) )
  in
  let live = { (cadence probe) with replicas = quorum_replicas } in
  { sweeps =
      [ ( with_config (fun c -> { c with live = Some live; audit }) s,
          [ cell "leader crash" 0.02 Fault.Schedule.[ { at = crash_at; what = Ctrl_crash 0 } ];
            cell "split brain" 0.02
              (on_leader_links partition_at (fun (u, v) -> Fault.Schedule.Link_fail (u, v))
              @ on_leader_links heal_at (fun (u, v) -> Fault.Schedule.Link_restore (u, v)));
            cell "quorum loss" 0.45 [] ] ) ];
    report = quorum_report ~leader_router:leader ~probe }

(* ---- ABL-CORRUPT: silent corruption vs anti-entropy repair ----------- *)

let corrupt_rates = [ 0.1; 0.4 ]

(* The anti-entropy sweep's period when on. *)
let sweep_every (probe : Pktsim.stats) = probe.sim_time /. 12.0

let corrupt_columns =
  let window ~csv head f = T.col ~csv ~w:8 head (T.Float (2, 3, fun (_, s) -> f s)) in
  let sweep none fmt ((_, _, period), _) =
    Option.fold ~none ~some:(Printf.sprintf fmt) period
  in
  T.[ col ~w:(-4) "plan" (Str (fun ((plan, _, _), _) -> plan));
      col ~w:5 "rate" (Float (2, 3, fun ((_, rate, _), _) -> rate));
      text ~w:6 "sweep" (Str (sweep "off" "%.1f"));
      csv "sweep_period" (Str (sweep "" "%.3f")) ]
  @ packets ()
  @ [ stat ~csv:"corruptions" 7 "corrupt" (fun s -> s.Pktsim.corruptions_injected);
      stat ~csv:"manifested" 6 "manif" (fun s -> s.Pktsim.corruptions_manifested);
      stat ~csv:"detected" 6 "detect" (fun s -> s.Pktsim.corruptions_detected);
      stat ~csv:"repaired" 6 "repair" (fun s -> s.Pktsim.corruptions_repaired);
      stat 9 "violating" (fun s -> s.Pktsim.policy_violations);
      window ~csv:"window_mean" "win-mean" (fun s -> s.Pktsim.repair_window_mean);
      window ~csv:"window_max" "win-max" (fun s -> s.Pktsim.repair_window_max);
      T.csv "sweep_rounds" (T.Int (fun (_, s) -> s.Pktsim.sweep_rounds));
      T.csv "sweep_msgs" (T.Int (fun (_, s) -> s.Pktsim.sweep_msgs));
      stat ~csv:"sweep_bytes" 7 "swbytes" (fun s -> s.Pktsim.sweep_bytes);
      audit_col () ]

let corrupt_report ~(probe : Pktsim.stats) rows =
  let live = cadence probe in
  ( T.[ line "=== ABL-CORRUPT: silent corruption vs anti-entropy repair (campus) ===";
        line "horizon %.1f; epoch %.1f, reconcile %.1f; sweep period %.1f when on; \
              probe %d events"
          probe.sim_time live.epoch_interval live.reconcile_interval (sweep_every probe)
          probe.events_processed;
        grid corrupt_columns rows ],
    [ ("abl_corrupt.csv", T.to_csv corrupt_columns rows) ] )

let corrupt ~flows ~seed ~audit ~rate ~sweep_period =
  let s = probed (hp_campus ~flows ~seed) in
  let probe = probe s and d = s.deployment in
  let rates = Option.fold ~none:corrupt_rates ~some:(fun r -> [ r ]) rate in
  let periods =
    match sweep_period with
    | None -> [ None; Some (sweep_every probe) ]
    | Some p when p = 0.0 -> [ None ]
    | Some p -> [ Some p ]
  in
  (* The burst is a pure function of (seed, rate, horizon, deployment):
     identical for every sweep period, so a row pair differs only in
     whether the sweep is armed.  A mild 2% control loss keeps the
     query/re-push ladder honest. *)
  let cell (name, plan) rate sweep_period =
    let burst =
      Fault.Schedule.corruption_events ~seed:(seed + 5) ~rate ~horizon:probe.sim_time
        ~n_proxies:(Array.length d.proxies) ~n_mboxes:(Array.length d.middleboxes)
    in
    let live = Some { (cadence probe) with sweep_period } in
    ( (name, rate, sweep_period),
      fun s ->
        { (plan s) with
          config = { s.config with faults = faults ~seed ~control_loss:0.02 burst; live } } )
  in
  let lb = Experiment.load_balanced d s.workload in
  let to_lb s = { s with plan = lb } in
  { sweeps =
      [ ( with_config (fun c -> { c with audit }) s,
          List.concat_map
            (fun plan -> List.concat_map (fun rate -> List.map (cell plan rate) periods) rates)
            [ ("HP", Fun.id); ("LB", to_lb) ] ) ];
    report = corrupt_report ~probe }

(* ---- ABL-REOPT: warm-started re-optimization vs cold re-solve -------- *)

let reopt_control_loss = 0.02

(* Twice the usual epoch cadence: the sweep's point is the re-solve
   sequence itself, and a denser cadence gives the warm chain
   same-layout neighbours (churn-free epochs late in the run) as well
   as layout-changing ones (around the churn window). *)
let reopt_cadence = cadence ~share:10.0

(* The IDS victim's crash and recovery, then the FW victim's, as
   shares of the probe horizon. *)
let reopt_times h = (0.15 *. h, 0.35 *. h, 0.45 *. h, 0.65 *. h)

let reopt_columns =
  T.[ col ~w:(-8) "scenario" (Str (fun ((name, _, _), _) -> name));
      col ~w:8 "routers" (Int (fun ((_, routers, _), _) -> routers));
      col ~w:5 "mode" (Str (fun ((_, _, warm), _) -> if warm then "warm" else "cold")) ]
  @ [ stat 7 "reopts" (fun s -> s.Pktsim.reoptimizations);
      (* [pivots] counts phase-2 pivots; [phase1] the phase-1 and
         drive-out pivots on top of them. *)
      stat 7 "pivots" (fun s -> s.Pktsim.reopt_pivots);
      stat 7 "phase1" (fun s -> s.Pktsim.reopt_phase1_pivots);
      stat ~csv:"warm_used" 5 "warm" (fun s -> s.Pktsim.reopt_warm_used);
      stat 9 "fallback" (fun s -> s.Pktsim.reopt_fallback) ]
  @ packets ()
  @ [ stat 10 "violating" (fun s -> s.Pktsim.policy_violations);
      stat 9 "versions" (fun s -> s.Pktsim.final_config_version);
      stat 9 "degraded" (fun s -> s.Pktsim.config_degraded);
      max_load_col ();
      audit_col () ]

(* Replay steps as (scenario, 1-based step, step).  A failure set
   reads "4+9" ("-" in the text when empty, "" in the CSV); a seed is
   the failure set of the memo entry it came from, or "plan" for the
   previous plan's basis. *)
let step_columns =
  let set ids = String.concat "+" (List.map string_of_int ids) in
  let text_set = function "" -> "-" | l -> l in
  let failed (_, _, (s : Experiment.reopt_step)) = set s.rs_failed in
  let seed (_, _, (s : Experiment.reopt_step)) = Option.map set s.rs_seed in
  let flag ?(no = "no") ~w head csv_head f =
    T.[ text ~w head (Str (fun (_, _, s) -> if f s then "yes" else no));
        csv csv_head (Str (fun (_, _, s) -> string_of_bool (f s))) ]
  in
  T.[ col ~w:(-8) "scenario" (Str (fun (name, _, _) -> name));
      col ~w:4 "step" (Int (fun (_, i, _) -> i));
      text ~w:(-10) "failed" (Str (fun r -> text_set (failed r)));
      csv "failed" (Str failed);
      text ~w:(-11) "seeded from"
        (Str (fun r -> match seed r with None -> "plan" | Some l -> text_set l));
      csv "seeded_from" (Str (fun r -> Option.value ~default:"plan" (seed r)));
      col ~w:11 "cold pivots" (Int (fun (_, _, s) -> s.Experiment.rs_cold_pivots));
      col ~w:11 "cold phase1" (Int (fun (_, _, s) -> s.Experiment.rs_cold_phase1));
      col ~w:11 "warm pivots" (Int (fun (_, _, s) -> s.Experiment.rs_warm_pivots));
      col ~w:11 "warm phase1" (Int (fun (_, _, s) -> s.Experiment.rs_warm_phase1));
      csv "cold_lambda" (Float (6, 6, fun (_, _, s) -> s.Experiment.rs_cold_lambda));
      csv "warm_lambda" (Float (6, 6, fun (_, _, s) -> s.Experiment.rs_warm_lambda)) ]
  @ flag ~w:5 "warm" "warm_used" (fun s -> s.Experiment.rs_warm_used)
  @ flag ~w:9 "fallback" "fallback" (fun s -> s.Experiment.rs_fallback)
  @ flag ~no:"NO" ~w:6 "agree" "agree" (fun s -> s.Experiment.rs_agree)

let agreement replays =
  let steps = List.concat_map snd replays in
  let agree = List.filter (fun (s : Experiment.reopt_step) -> s.rs_agree) steps in
  (List.length agree, List.length steps)

(* All the pivots of every replay step, phase 1 and phase 2: (cold,
   warm). *)
let replay_pivots replays =
  List.fold_left
    (fun (cold, warm) (s : Experiment.reopt_step) ->
      (cold + s.rs_cold_pivots + s.rs_cold_phase1, warm + s.rs_warm_pivots + s.rs_warm_phase1))
    (0, 0)
    (List.concat_map snd replays)

let reopt_report ~topologies ~replays rows =
  let info (name, routers, (v1, v2), (probe : Pktsim.stats)) =
    let live = reopt_cadence probe in
    let crash1, recover1, crash2, recover2 = reopt_times probe.sim_time in
    T.line
      "%s: %d routers; epoch %.1f, reconcile %.1f; churn mbox%d %.1f-%.1f, mbox%d %.1f-%.1f"
      name routers live.epoch_interval live.reconcile_interval v1 crash1 recover1 v2 crash2
      recover2
  in
  let number (name, steps) = List.mapi (fun i s -> (name, i + 1, s)) steps in
  let steps = List.concat_map number replays in
  let agree, total = agreement replays in
  let cold_pivots, warm_pivots = replay_pivots replays in
  ( T.line "=== ABL-REOPT: warm-started re-optimization vs cold re-solve ==="
    :: T.line "control-packet loss: %s (masked by retransmission)" (pct reopt_control_loss)
    :: List.map info topologies
    @ T.[ grid reopt_columns rows;
          blank;
          line "controller-level churn replay (per re-optimization):";
          grid step_columns steps;
          line "replay pivots (phase 1 + phase 2): cold %d, warm %d" cold_pivots warm_pivots;
          line "warm/cold objective agreement: %d/%d replay steps" agree total ],
    [ ("abl_reopt.csv", T.to_csv reopt_columns rows);
      ("abl_reopt_steps.csv", T.to_csv step_columns steps) ] )

(* One topology's scenario: the stale hot-potato plan under IDS and FW
   churn, with the cold and the warm cell. *)
let reopt_topology ~flows ~seed ~audit topology =
  let s = probed (scenario ~topology Experiment.hot_potato ~flows ~seed) in
  let name = Experiment.scenario_name topology in
  let routers = Netgraph.Graph.node_count s.deployment.topo.graph in
  let ((v1, v2) as victims) = Experiment.churn_victims s.deployment in
  let probe = probe s in
  let crash1, recover1, crash2, recover2 = reopt_times probe.sim_time in
  let faults =
    faults ~seed ~control_loss:reopt_control_loss
      Fault.Schedule.
        [ { at = crash1; what = Mbox_crash v1 };
          { at = recover1; what = Mbox_recover v1 };
          { at = crash2; what = Mbox_crash v2 };
          { at = recover2; what = Mbox_recover v2 } ]
  in
  let live = reopt_cadence probe in
  let cell warm_start =
    ( (name, routers, warm_start),
      with_config (fun c -> { c with live = Some { live with warm_start } }) )
  in
  ( (name, routers, victims, probe),
    (with_config (fun c -> { c with faults; audit }) s, [ cell false; cell true ]) )

let reopt ~flows ~seed ~audit ~jobs =
  let topologies = Experiment.[ Campus; Waxman ] in
  let on_each f = Experiment.fan_out ~jobs (List.map (fun t () -> f t) topologies) in
  let setups = on_each (reopt_topology ~flows ~seed ~audit) in
  let replays =
    on_each (fun t -> (Experiment.scenario_name t, Experiment.reopt_replay t ~flows ~seed ()))
  in
  ( { sweeps = List.map snd setups;
      report = reopt_report ~topologies:(List.map fst setups) ~replays },
    replays )
