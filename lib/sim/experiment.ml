type scenario = Campus | Waxman

let scenario_name = function Campus -> "campus" | Waxman -> "waxman"

let mbox_counts =
  Policy.Action.[ (WP, 4); (FW, 7); (IDS, 7); (TM, 4) ]

let build_deployment scenario ~seed =
  let topo =
    match scenario with
    | Campus -> Netgraph.Campus.generate ~seed ()
    | Waxman -> Netgraph.Waxman.generate ~seed ()
  in
  Sdm.Deployment.standard ~topo ~mbox_counts ~seed:(seed + 1)

type strategy_run = {
  strategy : string;
  controller : Sdm.Controller.t;
  result : Flowsim.result;
  lambda : float option;
}

let configure_exn ?k ?failed deployment ~rules kind =
  match Sdm.Controller.configure deployment ~rules ?k ?failed kind with
  | Ok c -> c
  | Error e -> failwith ("controller configuration failed: " ^ e)

let lambda_of (c : Sdm.Controller.t) =
  Option.map (fun lp -> lp.Sdm.Lp_formulation.lambda) c.Sdm.Controller.lp

(* The id of the box among [boxes] with the highest [loads] entry,
   first on ties. *)
let busiest boxes loads =
  List.fold_left
    (fun best (m : Mbox.Middlebox.t) -> if loads.(m.id) > loads.(best) then m.id else best)
    (List.hd boxes).Mbox.Middlebox.id boxes

(* The two controllers most experiments start from. *)
let hot_potato deployment (w : Workload.t) =
  configure_exn deployment ~rules:w.Workload.rules Sdm.Controller.Hot_potato

let load_balanced deployment (w : Workload.t) =
  configure_exn deployment ~rules:w.Workload.rules
    (Sdm.Controller.Load_balanced (Workload.measure w))

(* ---- Parallel cell fan-out --------------------------------------- *)

(* Every sweep below expresses its cells as a list of independent
   thunks evaluated through [Stdx.Domain_pool.map].  Results come back
   in input order and each thunk is a pure function of its captured
   (immutable) inputs — the deployment, workload and controllers are
   never mutated by a run — so the report is bit-identical whatever
   [jobs] is.  [jobs] defaults to {!Stdx.Domain_pool.default_jobs}. *)
let fan_out ?jobs thunks =
  Array.to_list (Stdx.Domain_pool.map ?jobs (fun f -> f ()) (Array.of_list thunks))

let fan_out2 ?jobs a b =
  match fan_out ?jobs [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false

(* Per-cell integer seed: the [i]-th child stream of the sweep's root
   seed ({!Stdx.Rng.derive}), order-independent so a cell's workload
   is a function of (root seed, cell index) alone — not of which
   domain ran it or how many cells preceded it. *)
let cell_seed ~seed i =
  Int64.to_int (Stdx.Rng.int64 (Stdx.Rng.derive (Stdx.Rng.create seed) i))
  land max_int

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let flow_events runs = sum (fun r -> r.result.Flowsim.events) runs

let run_strategies ~deployment ~flows ?(per_class = 5) ?(seed = 17) ?rule_seed
    ?jobs () =
  let workload = Workload.generate ~deployment ~per_class ~seed ?rule_seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let run kind name () =
    let controller = configure_exn deployment ~rules kind in
    let result = Flowsim.run ~controller ~workload () in
    { strategy = name; controller; result; lambda = lambda_of controller }
  in
  ( workload,
    fan_out ?jobs
      [
        run Sdm.Controller.Hot_potato "HP";
        run Sdm.Controller.Random_uniform "Rand";
        run (Sdm.Controller.Load_balanced traffic) "LB";
      ] )

(* ---- Figures 4 and 5 -------------------------------------------- *)

type point = {
  flows : int;
  total_packets : int;
  max_loads : (Policy.Action.nf * (float * float * float)) list;
}

type figure = { scenario : scenario; points : point list; fig_events : int }

let default_flow_counts = List.init 10 (fun i -> 30_000 * (i + 1))

let nf_list = List.map fst mbox_counts

let by_strategy runs =
  let find name = List.find (fun r -> r.strategy = name) runs in
  (find "HP", find "Rand", find "LB")

let point_of_runs ~flows ~total_packets runs =
  let hp, rand, lb = by_strategy runs in
  let max_loads =
    List.map
      (fun nf ->
        ( nf,
          ( Flowsim.max_load_of_nf hp.controller hp.result nf,
            Flowsim.max_load_of_nf rand.controller rand.result nf,
            Flowsim.max_load_of_nf lb.controller lb.result nf ) ))
      nf_list
  in
  { flows; total_packets; max_loads }

let run_figure scenario ?(flow_counts = default_flow_counts) ?(per_class = 5)
    ?(seed = 17) ?jobs () =
  let deployment = build_deployment scenario ~seed in
  let cells =
    List.mapi
      (fun i flows () ->
        (* Fixed policy set across the sweep; fresh flow population per
           volume point — the paper scales traffic, not policies.  The
           inner strategies stay sequential: the sweep itself is the
           parallel axis. *)
        let workload, runs =
          run_strategies ~deployment ~flows ~per_class ~seed:(cell_seed ~seed i)
            ~rule_seed:seed ~jobs:1 ()
        in
        ( point_of_runs ~flows ~total_packets:workload.Workload.total_packets runs,
          flow_events runs ))
      flow_counts
  in
  let results = fan_out ?jobs cells in
  { scenario; points = List.map fst results; fig_events = sum snd results }

(* ---- Table III --------------------------------------------------- *)

type table3_row = {
  nf : Policy.Action.nf;
  hp_max : float;
  hp_min : float;
  rand_max : float;
  rand_min : float;
  lb_max : float;
  lb_min : float;
}

type table3 = { t3_rows : table3_row list; t3_events : int }

let run_table3 ?(scenario = Campus) ?(flows = 300_000) ?(per_class = 5)
    ?(seed = 17) ?jobs () =
  let deployment = build_deployment scenario ~seed in
  let _, runs = run_strategies ~deployment ~flows ~per_class ~seed ?jobs () in
  let hp, rand, lb = by_strategy runs in
  let min_max run nf =
    let loads = Flowsim.loads_of_nf run.controller run.result nf in
    let s = Stdx.Stats.summarize loads in
    (s.Stdx.Stats.max, s.Stdx.Stats.min)
  in
  let rows =
    List.map
      (fun nf ->
        let hp_max, hp_min = min_max hp nf in
        let rand_max, rand_min = min_max rand nf in
        let lb_max, lb_min = min_max lb nf in
        { nf; hp_max; hp_min; rand_max; rand_min; lb_max; lb_min })
      nf_list
  in
  { t3_rows = rows; t3_events = flow_events runs }

(* ---- Ablations ---------------------------------------------------- *)

type k_point = {
  k_fw_ids : int;
  k_wp_tm : int;
  lb_max_by_nf : (Policy.Action.nf * float) list;
}

type k_sweep = { k_points : k_point list; k_events : int }

let ablation_k ?(scenario = Campus) ?(flows = 120_000) ?(seed = 17) ?jobs () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let cell (k_fw_ids, k_wp_tm) () =
    let k = function
      | Policy.Action.FW | Policy.Action.IDS -> k_fw_ids
      | Policy.Action.WP | Policy.Action.TM | Policy.Action.Custom _ -> k_wp_tm
    in
    let controller =
      configure_exn deployment ~rules ~k (Sdm.Controller.Load_balanced traffic)
    in
    let result = Flowsim.run ~controller ~workload () in
    ( {
        k_fw_ids;
        k_wp_tm;
        lb_max_by_nf =
          List.map
            (fun nf -> (nf, Flowsim.max_load_of_nf controller result nf))
            nf_list;
      },
      result.Flowsim.events )
  in
  let results =
    fan_out ?jobs (List.map cell [ (1, 1); (2, 1); (2, 2); (4, 2); (6, 3) ])
  in
  { k_points = List.map fst results; k_events = sum snd results }

(* Packet-level runs use a smaller flow population: they simulate every
   single packet. *)
let pkt_level_controller ?(seed = 17) ~flows () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  (load_balanced deployment workload, workload)

(* A fault-free run: the probe most packet-level experiments calibrate
   their horizon, victim or service rate against. *)
let probe ~controller ~workload = Pktsim.run ~controller ~workload ()

(* The stale hot-potato plan the live-control-plane experiments start
   from, with a fault-free probe under it. *)
let stale_start ?(scenario = Campus) ~seed ~flows () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let hp = hot_potato deployment workload in
  (deployment, workload, hp, probe ~controller:hp ~workload)

(* Epochs every [epoch], the re-push loop four times as often. *)
let live_every epoch =
  { Pktsim.default_live with epoch_interval = epoch; reconcile_interval = epoch /. 4.0 }

let run_live ~faults ~live ~audit ~controller ~workload =
  let config =
    { Pktsim.default_config with faults = Some faults; live = Some live; audit }
  in
  Pktsim.run ~config ~controller ~workload ()

let ablation_cache ?(flows = 2_000) ?(seed = 17) () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  probe ~controller ~workload

let lookup_fraction (s : Pktsim.stats) =
  float_of_int s.Pktsim.multi_field_lookups
  /. float_of_int (max 1 s.Pktsim.injected_packets)

type cache_size_point = { capacity : int option; stats : Pktsim.stats }

let ablation_cache_size ?(flows = 1_000) ?(seed = 17) ?jobs () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let cell capacity () =
    let config = { Pktsim.default_config with cache_capacity = capacity } in
    { capacity; stats = Pktsim.run ~config ~controller ~workload () }
  in
  fan_out ?jobs (List.map cell [ Some 16; Some 64; Some 256; None ])

type frag_report = { with_labels : Pktsim.stats; ip_over_ip : Pktsim.stats }

let ablation_fragmentation ?(flows = 2_000) ?(seed = 17) ?jobs () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let cell label_switching () =
    Pktsim.run
      ~config:{ Pktsim.default_config with label_switching }
      ~controller ~workload ()
  in
  let with_labels, ip_over_ip = fan_out2 ?jobs (cell true) (cell false) in
  { with_labels; ip_over_ip }

type failure_report = {
  failed_mbox : int;
  failed_nf : Policy.Action.nf;
  before_max : float;
  failover_max : float;
  reoptimized_max : float;
  reoptimized_lambda : float;
  hp_failover_max : float;
  survivors : int;
  fail_events : int;
}

let ablation_failure ?(scenario = Campus) ?(flows = 120_000) ?(seed = 17) ?jobs () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  let before = Flowsim.run ~controller:lb ~workload () in
  (* Kill the most-loaded IDS middlebox. *)
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of deployment nf in
  let failed = busiest victims before.Flowsim.loads in
  let alive id = id <> failed in
  let max_ids result =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) ->
        if m.id = failed then acc else max acc result.Flowsim.loads.(m.id))
      0.0 victims
  in
  (* The three post-probe runs are independent of each other (only of
     the probe's victim choice), so they fan out as one batch. *)
  let cells =
    [
      (* Phase 1: local fast failover with the stale LP weights. *)
      (fun () -> (Flowsim.run ~alive ~controller:lb ~workload (), 0.0));
      (* Phase 2: the controller re-optimizes without the failed box. *)
      (fun () ->
        let controller =
          configure_exn deployment ~rules ~failed:[ failed ]
            (Sdm.Controller.Load_balanced traffic)
        in
        ( Flowsim.run ~controller ~workload (),
          Option.value (lambda_of controller) ~default:0.0 ));
      (* Baseline: hot-potato under the same failure. *)
      (fun () ->
        let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
        (Flowsim.run ~alive ~controller:hp ~workload (), 0.0));
    ]
  in
  match fan_out ?jobs cells with
  | [ (failover, _); (reopt, reopt_lambda); (hp_failover, _) ] ->
    {
      failed_mbox = failed;
      failed_nf = nf;
      before_max = Flowsim.max_load_of_nf lb before nf;
      failover_max = max_ids failover;
      reoptimized_max = max_ids reopt;
      reoptimized_lambda = reopt_lambda;
      hp_failover_max = max_ids hp_failover;
      survivors = List.length victims - 1;
      fail_events =
        before.Flowsim.events + failover.Flowsim.events + reopt.Flowsim.events
        + hp_failover.Flowsim.events;
    }
  | _ -> assert false

(* ---- ABL-CHAOS: in-run faults, detection delay sweep ------------- *)

type chaos_row = { chaos_mode : string; chaos_delay : float; stats : Pktsim.stats }

type chaos_report = {
  chaos_victim : int;
  chaos_victim_nf : Policy.Action.nf;
  chaos_survivors : int list;
  chaos_crash_at : float;
  chaos_link : (int * int) option;
  chaos_link_fail_at : float;
  chaos_link_restore_at : float;
  chaos_control_loss : float;
  chaos_probe_events : int;
  chaos_rows : chaos_row list;
}

let audit_violations (stats : Pktsim.stats) =
  Option.map
    (fun (r : Audit.Checker.report) -> r.Audit.Checker.violations)
    stats.Pktsim.audit_report

let max_load (stats : Pktsim.stats) = Array.fold_left Stdlib.max 0.0 stats.Pktsim.loads

let ablation_chaos ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(detection_delays = [ 2.0; 10.0; 40.0 ]) ?jobs () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let lb = load_balanced deployment workload in
  let hp = hot_potato deployment workload in
  (* A fault-free probe run fixes the victim (the busiest IDS box under
     LB) and the horizon the fault schedule is placed within. *)
  let probe = probe ~controller:lb ~workload in
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of deployment nf in
  let victim = busiest victims probe.Pktsim.loads in
  let at share = share *. probe.Pktsim.sim_time in
  (* A gateway-core link to fail and restore mid-run: campus cores are
     dual-homed to both gateways, so the graph stays connected and
     OSPF reroutes around the outage. *)
  let topo = deployment.Sdm.Deployment.topo in
  let link =
    match Netgraph.Topology.gateways topo with
    | [] -> None
    | gw :: _ ->
      List.find_map
        (fun { Netgraph.Graph.dst; _ } ->
          match Netgraph.Topology.role topo dst with
          | Netgraph.Topology.Core -> Some (gw, dst)
          | _ -> None)
        (Netgraph.Graph.neighbors topo.Netgraph.Topology.graph gw)
  in
  let control_loss = 0.02 in
  let schedule =
    Fault.Schedule.make ~control_loss ~loss_seed:(seed + 3)
      (Fault.Schedule.[ { at = at 0.25; what = Mbox_crash victim } ]
      @
      match link with
      | None -> []
      | Some (u, v) ->
        Fault.Schedule.
          [
            { at = at 0.45; what = Link_fail (u, v) };
            { at = at 0.65; what = Link_restore (u, v) };
          ])
  in
  let row ~mode ~controller ~failover ~delay () =
    let config =
      {
        Pktsim.default_config with
        faults = Some schedule;
        detection_delay = delay;
        failover;
        audit;
      }
    in
    {
      chaos_mode = mode;
      chaos_delay = (if failover then delay else infinity);
      stats = Pktsim.run ~config ~controller ~workload ();
    }
  in
  let failover mode controller d = row ~mode ~controller ~failover:true ~delay:d in
  {
    chaos_victim = victim;
    chaos_victim_nf = nf;
    chaos_survivors =
      List.filter_map
        (fun (m : Mbox.Middlebox.t) -> if m.id = victim then None else Some m.id)
        victims;
    chaos_crash_at = at 0.25;
    chaos_link = link;
    chaos_link_fail_at = at 0.45;
    chaos_link_restore_at = at 0.65;
    chaos_control_loss = control_loss;
    chaos_probe_events = probe.Pktsim.events_processed;
    chaos_rows =
      fan_out ?jobs
        (List.concat_map
           (fun d -> [ failover "HP+failover" hp d; failover "LB+failover" lb d ])
           detection_delays
        @ [ row ~mode:"LB, no failover" ~controller:lb ~failover:false ~delay:0.0 ]);
  }

(* ---- ABL-LIVE: live reconfiguration, control-loss sweep ---------- *)

type live_row = { live_loss : float; stats : Pktsim.stats }

type live_device = {
  dev_name : string;
  dev_version : int;
  dev_lag : int;
  dev_retries : int;
  dev_lost : int;
}

type live_report = {
  live_epoch : float;
  live_reconcile : float;
  live_stale_max : float;
  live_clairvoyant_max : float;
  live_probe_events : int;
  live_rows : live_row list;
  live_devices : live_device list;
}

let ablation_live ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(control_losses = [ 0.0; 0.02; 0.10 ]) ?jobs () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let hp = hot_potato deployment workload in
  let lb = load_balanced deployment workload in
  (* A probe run under the stale hot-potato plan fixes the horizon the
     re-optimization epochs are spread across, and is itself the
     stale-weight baseline the live rows should beat.  The clairvoyant
     run — the controller knew the whole traffic matrix up front, the
     best any measurement-driven loop can converge to — is independent
     of it, so the two probes fan out together. *)
  let stale, clairvoyant =
    fan_out2 ?jobs
      (fun () -> probe ~controller:hp ~workload)
      (fun () -> probe ~controller:lb ~workload)
  in
  let live = live_every (stale.Pktsim.sim_time /. 5.0) in
  (* loss = 0 still goes through the fault plumbing so the control
     channel is exercised end-to-end; only the Bernoulli parameter
     differs across the sweep. *)
  let run_loss live_loss () =
    let faults = Fault.Schedule.make ~control_loss:live_loss ~loss_seed:(seed + 3) [] in
    { live_loss; stats = run_live ~faults ~live ~audit ~controller:hp ~workload }
  in
  let rows = fan_out ?jobs (List.map run_loss control_losses) in
  (* Per-device attribution comes from the lossiest run — the one
     where retries and version lag actually have something to show. *)
  let devices =
    match rows with
    | [] -> []
    | first :: _ ->
      let { stats; _ } =
        List.fold_left (fun b r -> if r.live_loss > b.live_loss then r else b) first rows
      in
      let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
      List.init
        (Array.length stats.Pktsim.entity_config_version)
        (fun i ->
          let version = stats.Pktsim.entity_config_version.(i) in
          {
            dev_name =
              (if i < n_proxies then Printf.sprintf "proxy%d" i
               else Printf.sprintf "mbox%d" (i - n_proxies));
            dev_version = version;
            dev_lag = stats.Pktsim.final_config_version - version;
            dev_retries = stats.Pktsim.entity_control_retries.(i);
            dev_lost = stats.Pktsim.entity_control_lost.(i);
          })
  in
  {
    live_epoch = live.Pktsim.epoch_interval;
    live_reconcile = live.Pktsim.reconcile_interval;
    live_stale_max = max_load stale;
    live_clairvoyant_max = max_load clairvoyant;
    live_probe_events = stale.Pktsim.events_processed + clairvoyant.Pktsim.events_processed;
    live_rows = rows;
    live_devices = devices;
  }

(* ---- ABL-QUORUM: replicated controller under chaos --------------- *)

type quorum_row = { qr_scenario : string; qr_loss : float; stats : Pktsim.stats }

type quorum_report = {
  q_replicas : int;
  q_epoch : float;
  q_reconcile : float;
  q_crash_at : float;
  q_partition_at : float;
  q_heal_at : float;
  q_leader_router : int;
  q_probe_events : int;
  q_rows : quorum_row list;
}

let ablation_quorum ?(flows = 500) ?(seed = 17) ?(audit = false) ?jobs () =
  (* The fault-free probe under the stale plan fixes the horizon the
     epochs and the fault schedule are placed within. *)
  let deployment, workload, hp, probe = stale_start ~seed ~flows () in
  let horizon = probe.Pktsim.sim_time in
  let replicas = 3 in
  let live = { (live_every (horizon /. 5.0)) with replicas } in
  let leader_router = Controlplane.default_router deployment in
  let crash_at = 0.3 *. horizon in
  let partition_at = 0.35 *. horizon in
  let heal_at = 0.7 *. horizon in
  (* Split brain: cut every link of the lead replica's attachment
     router, leaving the leader alone on the minority side of the
     partition while the two standbys (and most devices) stay
     connected on the other. *)
  let leader_links =
    List.map
      (fun { Netgraph.Graph.dst; _ } -> (leader_router, dst))
      (Netgraph.Graph.neighbors
         deployment.Sdm.Deployment.topo.Netgraph.Topology.graph leader_router)
  in
  let faults loss events =
    (loss, Fault.Schedule.make ~control_loss:loss ~loss_seed:(seed + 3) events)
  in
  let on_leader_links at what =
    List.map (fun l -> Fault.Schedule.{ at; what = what l }) leader_links
  in
  let schedule_of = function
    | "leader crash" ->
      faults 0.02 Fault.Schedule.[ { at = crash_at; what = Ctrl_crash 0 } ]
    | "split brain" ->
      faults 0.02
        (on_leader_links partition_at (fun (u, v) -> Fault.Schedule.Link_fail (u, v))
        @ on_leader_links heal_at (fun (u, v) -> Fault.Schedule.Link_restore (u, v)))
    | "quorum loss" -> faults 0.45 []
    | s -> invalid_arg ("ablation_quorum: unknown scenario " ^ s)
  in
  let row scenario () =
    let loss, faults = schedule_of scenario in
    let stats = run_live ~faults ~live ~audit ~controller:hp ~workload in
    { qr_scenario = scenario; qr_loss = loss; stats }
  in
  {
    q_replicas = replicas;
    q_epoch = live.Pktsim.epoch_interval;
    q_reconcile = live.Pktsim.reconcile_interval;
    q_crash_at = crash_at;
    q_partition_at = partition_at;
    q_heal_at = heal_at;
    q_leader_router = leader_router;
    q_probe_events = probe.Pktsim.events_processed;
    q_rows = fan_out ?jobs (List.map row [ "leader crash"; "split brain"; "quorum loss" ]);
  }

(* ---- ABL-CORRUPT: silent corruption vs anti-entropy repair ------- *)

type corrupt_row = {
  cr_strategy : string;
  cr_rate : float;
  cr_sweep : float option;
  stats : Pktsim.stats;
}

type corrupt_report = {
  c_horizon : float;
  c_epoch : float;
  c_reconcile : float;
  c_default_sweep : float;
  c_probe_events : int;
  c_rows : corrupt_row list;
}

let ablation_corrupt ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(rates = [ 0.1; 0.4 ]) ?sweep_periods ?jobs () =
  (* The fault-free probe fixes the horizon the corruption burst and
     the sweep cadence are placed within. *)
  let deployment, workload, hp, probe = stale_start ~seed ~flows () in
  let lb = load_balanced deployment workload in
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  let n_mboxes = Array.length deployment.Sdm.Deployment.middleboxes in
  let horizon = probe.Pktsim.sim_time in
  let live = live_every (horizon /. 5.0) in
  let default_sweep = horizon /. 12.0 in
  let sweep_periods = Option.value sweep_periods ~default:[ None; Some default_sweep ] in
  let row (name, controller) rate sweep () =
    (* The corruption burst is a pure function of (seed, rate,
       horizon, deployment) — identical for every sweep period, so a
       row pair differs only in whether the sweep is armed.  A mild
       2% control loss keeps the query/re-push ladder honest. *)
    let faults =
      Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(seed + 3)
        (Fault.Schedule.corruption_events ~seed:(seed + 5) ~rate ~horizon ~n_proxies
           ~n_mboxes)
    in
    let live = { live with sweep_period = sweep } in
    let stats = run_live ~faults ~live ~audit ~controller ~workload in
    { cr_strategy = name; cr_rate = rate; cr_sweep = sweep; stats }
  in
  let cells =
    List.concat_map
      (fun strategy ->
        List.concat_map (fun rate -> List.map (row strategy rate) sweep_periods) rates)
      [ ("HP", hp); ("LB", lb) ]
  in
  {
    c_horizon = horizon;
    c_epoch = live.Pktsim.epoch_interval;
    c_reconcile = live.Pktsim.reconcile_interval;
    c_default_sweep = default_sweep;
    c_probe_events = probe.Pktsim.events_processed;
    c_rows = fan_out ?jobs cells;
  }

(* ---- ABL-REOPT: warm-started re-optimization vs cold re-solve ---- *)

type reopt_step = {
  rs_failed : int list;
  rs_cold_pivots : int;
  rs_warm_pivots : int;
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_warm_used : bool;
  rs_fallback : bool;
  rs_agree : bool;
}

let lambda_agree ~cold ~warm =
  Float.abs (warm -. cold) <= 1e-6 *. Stdlib.max 1.0 (Float.abs cold)

(* Two boxes from different functions, so excluding either never
   empties a candidate set (7 FW and 7 IDS boxes are deployed). *)
let churn_victims deployment =
  let first nf =
    (List.hd (Sdm.Deployment.middleboxes_of deployment nf)).Mbox.Middlebox.id
  in
  (first Policy.Action.IDS, first Policy.Action.FW)

(* A load-balanced controller plus the churn sequence each chain
   replays: no change (the warm solve must take zero pivots), a crash,
   a second concurrent crash, the first recovery, full recovery, and a
   final no-change step. *)
let churn_chain scenario ~flows ~seed =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let v1, v2 = churn_victims deployment in
  ( load_balanced deployment workload,
    Workload.measure workload,
    [ []; [ v1 ]; [ v1; v2 ]; [ v2 ]; []; [] ] )

let reopt_exn c ~failed ~use_warm ~traffic =
  match Sdm.Controller.reoptimize c ~failed ~use_warm ~traffic () with
  | Ok c -> c
  | Error e -> failwith ("reopt_replay: " ^ e)

let reopt_replay scenario ?(flows = 500) ?(seed = 17) () =
  let base, traffic, chain = churn_chain scenario ~flows ~seed in
  let lp (c : Sdm.Controller.t) = Option.get c.Sdm.Controller.lp in
  let _, _, rev =
    List.fold_left
      (fun (cold, warm, acc) failed ->
        let cold = reopt_exn cold ~failed ~use_warm:false ~traffic in
        let warm = reopt_exn warm ~failed ~use_warm:true ~traffic in
        let cl = lp cold and wl = lp warm in
        let cold_lambda = cl.Sdm.Lp_formulation.lambda in
        let warm_lambda = wl.Sdm.Lp_formulation.lambda in
        ( cold,
          warm,
          {
            rs_failed = failed;
            rs_cold_pivots = cl.Sdm.Lp_formulation.lp_pivots;
            rs_warm_pivots = wl.Sdm.Lp_formulation.lp_pivots;
            rs_cold_lambda = cold_lambda;
            rs_warm_lambda = warm_lambda;
            rs_warm_used = wl.Sdm.Lp_formulation.lp_warm_used;
            rs_fallback = wl.Sdm.Lp_formulation.lp_fallback;
            rs_agree = lambda_agree ~cold:cold_lambda ~warm:warm_lambda;
          }
          :: acc ))
      (base, base, []) chain
  in
  List.rev rev

let reopt_solve_ms ~clock scenario ?(flows = 500) ?(seed = 17) () =
  let base, traffic, chain = churn_chain scenario ~flows ~seed in
  let reps = 5 in
  let per_solve use_warm =
    let t0 = clock () in
    for _ = 1 to reps do
      ignore
        (List.fold_left (fun c failed -> reopt_exn c ~failed ~use_warm ~traffic) base chain)
    done;
    (clock () -. t0) /. float_of_int (reps * List.length chain) *. 1e3
  in
  let cold = per_solve false in
  (cold, per_solve true)

type reopt_row = {
  rp_scenario : string;
  rp_routers : int;
  rp_warm : bool;
  stats : Pktsim.stats;
}

type reopt_scenario_info = {
  ri_name : string;
  ri_routers : int;
  ri_epoch : float;
  ri_reconcile : float;
  ri_victims : int * int;
  ri_crash1 : float;
  ri_recover1 : float;
  ri_crash2 : float;
  ri_recover2 : float;
  ri_probe_events : int;
}

type reopt_report = {
  rp_control_loss : float;
  rp_infos : reopt_scenario_info list;
  rp_rows : reopt_row list;
  rp_replays : (string * reopt_step list) list;
  rp_agree : int;
  rp_total : int;
}

let ablation_reopt ?(flows = 500) ?(seed = 17) ?(audit = false) ?jobs () =
  let control_loss = 0.02 in
  let scenarios = [ Campus; Waxman ] in
  let scenario_cell scenario () =
    (* The fault-free probe under the stale plan fixes the horizon the
       epochs and the churn schedule are placed within. *)
    let deployment, workload, hp, probe = stale_start ~scenario ~seed ~flows () in
    let horizon = probe.Pktsim.sim_time in
    (* Twice the usual epoch cadence: the sweep's point is the re-solve
       sequence itself, and a denser cadence gives the warm chain
       same-layout neighbours (churn-free epochs late in the run) as
       well as layout-changing ones (around the churn window). *)
    let live = live_every (horizon /. 10.0) in
    let v1, v2 = churn_victims deployment in
    let crash1 = 0.15 *. horizon and recover1 = 0.35 *. horizon in
    let crash2 = 0.45 *. horizon and recover2 = 0.65 *. horizon in
    let faults =
      Fault.Schedule.make ~control_loss ~loss_seed:(seed + 3)
        Fault.Schedule.
          [
            { at = crash1; what = Mbox_crash v1 };
            { at = recover1; what = Mbox_recover v1 };
            { at = crash2; what = Mbox_crash v2 };
            { at = recover2; what = Mbox_recover v2 };
          ]
    in
    let routers =
      Netgraph.Graph.node_count deployment.Sdm.Deployment.topo.Netgraph.Topology.graph
    in
    let run warm =
      let live = { live with warm_start = warm } in
      let stats = run_live ~faults ~live ~audit ~controller:hp ~workload in
      { rp_scenario = scenario_name scenario; rp_routers = routers; rp_warm = warm; stats }
    in
    let info =
      {
        ri_name = scenario_name scenario;
        ri_routers = routers;
        ri_epoch = live.Pktsim.epoch_interval;
        ri_reconcile = live.Pktsim.reconcile_interval;
        ri_victims = (v1, v2);
        ri_crash1 = crash1;
        ri_recover1 = recover1;
        ri_crash2 = crash2;
        ri_recover2 = recover2;
        ri_probe_events = probe.Pktsim.events_processed;
      }
    in
    (* The cold/warm pair stays inside the cell so both rows share one
       probe, schedule and workload — the pair differs only in the
       [warm_start] flag. *)
    (info, [ run false; run true ])
  in
  let cells = fan_out ?jobs (List.map scenario_cell scenarios) in
  let replays =
    fan_out ?jobs
      (List.map (fun s () -> (scenario_name s, reopt_replay s ~flows ~seed ())) scenarios)
  in
  let steps = List.concat_map snd replays in
  {
    rp_control_loss = control_loss;
    rp_infos = List.map fst cells;
    rp_rows = List.concat_map snd cells;
    rp_replays = replays;
    rp_agree = List.length (List.filter (fun s -> s.rs_agree) steps);
    rp_total = List.length steps;
  }

type sketch_point = {
  epsilon : float;
  sketch_cells : int;
  exact_cells : int;
  exact_lambda : float;
  sketched_lambda : float;
  exact_realized_max : float;
  sketched_realized_max : float;
}

type sketch_sweep = { sk_points : sketch_point list; sk_events : int }

let ablation_sketch ?(flows = 120_000) ?(seed = 17) ?jobs () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let exact = Workload.measure workload in
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  let exact_cells =
    List.fold_left
      (fun acc rule -> acc + List.length (Sdm.Measurement.pairs_for exact ~rule))
      0
      (Sdm.Measurement.rules_with_traffic exact)
  in
  let realized traffic =
    let controller =
      configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic)
    in
    let result = Flowsim.run ~controller ~workload () in
    ( Option.value (lambda_of controller) ~default:0.0,
      Array.fold_left max 0.0 result.Flowsim.loads,
      result.Flowsim.events )
  in
  let exact_lambda, exact_realized_max, exact_events = realized exact in
  let cell epsilon () =
    let sketch =
      Sdm.Sketch.of_workload_measurement ~exact ~n_proxies ~rules ~epsilon ()
    in
    let approx = Sdm.Sketch.to_measurement sketch ~rules in
    let sketched_lambda, sketched_realized_max, events = realized approx in
    ( {
        epsilon;
        sketch_cells = Sdm.Sketch.memory_cells sketch;
        exact_cells;
        exact_lambda;
        sketched_lambda;
        exact_realized_max;
        sketched_realized_max;
      },
      events )
  in
  let results = fan_out ?jobs (List.map cell [ 0.5; 0.2; 0.05; 0.01 ]) in
  { sk_points = List.map fst results; sk_events = exact_events + sum snd results }

type latency_report = { enforced : Pktsim.stats; plain : Pktsim.stats }

let ablation_latency ?(flows = 1_000) ?(seed = 17) ?jobs () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let enforced, plain =
    fan_out2 ?jobs
      (fun () -> probe ~controller ~workload)
      (fun () ->
        let plain_controller =
          configure_exn controller.Sdm.Controller.deployment ~rules:[]
            Sdm.Controller.Hot_potato
        in
        probe ~controller:plain_controller
          ~workload:{ workload with Workload.rules = [] })
  in
  { enforced; plain }

type queue_report = {
  service_rate : float;
  hp_util_max : float;
  lb_util_max : float;
  hp_latency_mean : float;
  hp_latency_p99 : float;
  lb_latency_mean : float;
  lb_latency_p99 : float;
  events_processed : int;
  router_hops : int;
}

let ablation_queue ?(flows = 800) ?(seed = 17) ?jobs () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let lb = load_balanced deployment workload in
  let hp = hot_potato deployment workload in
  (* Calibrate: infinite-rate LB run gives the busiest box's arrival
     rate; provision every box at 2x that, i.e. ~50% utilisation under
     the balanced plan. *)
  let probe = probe ~controller:lb ~workload in
  let max_load = Array.fold_left max 1.0 probe.Pktsim.loads in
  let service_rate = 2.0 *. max_load /. probe.Pktsim.sim_time in
  let config = { Pktsim.default_config with service_rate } in
  let run controller () = Pktsim.run ~config ~controller ~workload () in
  let hp_run, lb_run = fan_out2 ?jobs (run hp) (run lb) in
  let util stats =
    (* Busiest box's work time over the span it was receiving. *)
    Array.fold_left max 0.0 stats.Pktsim.loads
    /. service_rate /. probe.Pktsim.sim_time
  in
  let runs = [ probe; hp_run; lb_run ] in
  {
    service_rate;
    hp_util_max = util hp_run;
    lb_util_max = util lb_run;
    hp_latency_mean = hp_run.Pktsim.latency_mean;
    hp_latency_p99 = hp_run.Pktsim.latency_p99;
    lb_latency_mean = lb_run.Pktsim.latency_mean;
    lb_latency_p99 = lb_run.Pktsim.latency_p99;
    events_processed = sum (fun s -> s.Pktsim.events_processed) runs;
    router_hops = sum (fun s -> s.Pktsim.router_hops) runs;
  }

type lp_side = {
  lp_lambda : float;
  lp_vars : int;
  lp_constraints : int;
  lp_realized : float;
  lp_weight_rows : int;
}

type lp_compare = { exact : lp_side; simplified : lp_side; lp_events : int }

let ablation_lp ?(flows = 5_000) ?(seed = 17) ?jobs () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~per_class:2 ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  (* Full enforcement comparison: configure a controller per
     formulation and realise both plans on the same workload — one
     fan-out cell per formulation, LP solve included. *)
  let cell kind () =
    let c = configure_exn deployment ~rules kind in
    let result = Flowsim.run ~controller:c ~workload () in
    let lp = Option.get c.Sdm.Controller.lp in
    ( {
        lp_lambda = lp.Sdm.Lp_formulation.lambda;
        lp_vars = lp.Sdm.Lp_formulation.lp_vars;
        lp_constraints = lp.Sdm.Lp_formulation.lp_constraints;
        lp_realized = Array.fold_left max 0.0 result.Flowsim.loads;
        lp_weight_rows = (Sdm.Controller.config_summary c).Sdm.Controller.weight_rows;
      },
      result.Flowsim.events )
  in
  let (exact, e1), (simplified, e2) =
    fan_out2 ?jobs
      (cell (Sdm.Controller.Load_balanced_exact traffic))
      (cell (Sdm.Controller.Load_balanced traffic))
  in
  { exact; simplified; lp_events = e1 + e2 }
