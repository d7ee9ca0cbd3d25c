(* Tests for the workload generator, the flow-level simulator, the
   packet-level simulator, and the cross-simulator integration
   invariants. *)

let campus ?(seed = 42) () = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed

(* --- Workload ---------------------------------------------------------- *)

let test_workload_shape () =
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:1 ~flows:9_000 () in
  Alcotest.(check int) "flow count" 9_000 (Array.length w.Sim.Workload.flows);
  (* 5 per class: 5 m2o + 5 o2m + 5 companions + 5 o2o = 20 rules. *)
  Alcotest.(check int) "rule count" 20 (List.length w.Sim.Workload.rules);
  (* Flow classes split evenly. *)
  let count cls =
    Array.fold_left
      (fun acc (f : Sim.Workload.flow_spec) ->
        if f.Sim.Workload.intended_class = cls then acc + 1 else acc)
      0 w.Sim.Workload.flows
  in
  Alcotest.(check int) "one third m2o" 3_000 (count Sim.Workload.Many_to_one);
  Alcotest.(check int) "one third o2m" 3_000 (count Sim.Workload.One_to_many);
  Alcotest.(check int) "one third o2o" 3_000 (count Sim.Workload.One_to_one)

let test_workload_calibration () =
  (* 30k flows should give on the order of 1M packets (paper: 30k-300k
     flows <-> 1M-10M packets).  Allow a generous band for power-law
     variance. *)
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:2 ~flows:30_000 () in
  let total = w.Sim.Workload.total_packets in
  if total < 700_000 || total > 1_400_000 then
    Alcotest.failf "30k flows gave %d packets, expected ~1M" total

let test_workload_sizes_bounded () =
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:3 ~flows:5_000 () in
  Array.iter
    (fun (f : Sim.Workload.flow_spec) ->
      if f.Sim.Workload.packets < 1 || f.Sim.Workload.packets > 5000 then
        Alcotest.failf "flow size %d outside [1,5000]" f.Sim.Workload.packets;
      Alcotest.(check bool) "distinct endpoints" true
        (f.Sim.Workload.src_proxy <> f.Sim.Workload.dst_proxy))
    w.Sim.Workload.flows

let test_workload_flows_match_their_rule () =
  (* The stored rule_id must be the true first match of the flow's
     5-tuple against the ordered rule list. *)
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:4 ~flows:2_000 () in
  Array.iter
    (fun (f : Sim.Workload.flow_spec) ->
      let expected =
        Option.map
          (fun r -> r.Policy.Rule.id)
          (Policy.Rule.first_match w.Sim.Workload.rules f.Sim.Workload.flow)
      in
      Alcotest.(check (option int)) "first match recorded" expected
        f.Sim.Workload.rule_id)
    w.Sim.Workload.flows

let test_workload_endpoints_consistent () =
  (* src/dst addresses really lie in the stated proxies' subnets. *)
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:1_000 () in
  Array.iter
    (fun (f : Sim.Workload.flow_spec) ->
      Alcotest.(check bool) "src in subnet" true
        (Netpkt.Addr.Prefix.contains
           (Sdm.Deployment.subnet_of dep f.Sim.Workload.src_proxy)
           f.Sim.Workload.flow.Netpkt.Flow.src);
      Alcotest.(check bool) "dst in subnet" true
        (Netpkt.Addr.Prefix.contains
           (Sdm.Deployment.subnet_of dep f.Sim.Workload.dst_proxy)
           f.Sim.Workload.flow.Netpkt.Flow.dst))
    w.Sim.Workload.flows

let test_workload_deterministic () =
  let dep = campus () in
  let a = Sim.Workload.generate ~deployment:dep ~seed:6 ~flows:500 () in
  let b = Sim.Workload.generate ~deployment:dep ~seed:6 ~flows:500 () in
  Alcotest.(check int) "same totals" a.Sim.Workload.total_packets
    b.Sim.Workload.total_packets;
  Array.iteri
    (fun i (fa : Sim.Workload.flow_spec) ->
      let fb = b.Sim.Workload.flows.(i) in
      Alcotest.(check bool) "same flow" true
        (Netpkt.Flow.equal fa.Sim.Workload.flow fb.Sim.Workload.flow))
    a.Sim.Workload.flows

let test_measure_totals () =
  let dep = campus () in
  let w = Sim.Workload.generate ~deployment:dep ~seed:7 ~flows:2_000 () in
  let m = Sim.Workload.measure w in
  let expected =
    Array.fold_left
      (fun acc (f : Sim.Workload.flow_spec) ->
        match f.Sim.Workload.rule_id with
        | Some _ -> acc +. float_of_int f.Sim.Workload.packets
        | None -> acc)
      0.0 w.Sim.Workload.flows
  in
  Alcotest.(check (float 1e-6)) "measured total = policy packets" expected
    (Sdm.Measurement.total m)

(* --- Flowsim ------------------------------------------------------------ *)

let run_campus_strategies flows =
  let dep = campus () in
  Sim.Experiment.run_strategies ~deployment:dep ~flows ()

let test_flowsim_load_conservation () =
  (* Total middlebox load = sum over enforced flows of
     packets * chain length, for every strategy. *)
  let workload, runs = run_campus_strategies 5_000 in
  let expected =
    Array.fold_left
      (fun acc (f : Sim.Workload.flow_spec) ->
        match Sim.Workload.rule_of workload f with
        | Some r when not (Policy.Action.is_permit r.Policy.Rule.actions) ->
          acc
          + (f.Sim.Workload.packets * List.length r.Policy.Rule.actions)
        | _ -> acc)
      0 workload.Sim.Workload.flows
  in
  List.iter
    (fun (r : Sim.Experiment.strategy_run) ->
      let total =
        Array.fold_left ( +. ) 0.0 r.Sim.Experiment.result.Sim.Flowsim.loads
      in
      Alcotest.(check (float 0.5))
        (r.Sim.Experiment.strategy ^ " load conservation")
        (float_of_int expected) total)
    runs

let test_flowsim_hot_potato_uses_closest () =
  (* Under HP every enforced flow's first middlebox is the closest one
     to its proxy: all load of a function e from proxy s lands on
     m_s^e.  Spot-check by re-deriving loads for a tiny workload. *)
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:8 ~flows:300 () in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      Sdm.Controller.Hot_potato
  with
  | Error e -> Alcotest.fail e
  | Ok controller ->
    let result = Sim.Flowsim.run ~controller ~workload () in
    let expected = Array.make (Array.length dep.Sdm.Deployment.middleboxes) 0.0 in
    Array.iter
      (fun (f : Sim.Workload.flow_spec) ->
        match Sim.Workload.rule_of workload f with
        | Some rule when rule.Policy.Rule.actions <> [] ->
          let entity = ref (Mbox.Entity.Proxy f.Sim.Workload.src_proxy) in
          List.iter
            (fun nf ->
              let mb = Sdm.Controller.closest controller !entity nf in
              expected.(mb.Mbox.Middlebox.id) <-
                expected.(mb.Mbox.Middlebox.id)
                +. float_of_int f.Sim.Workload.packets;
              entity := Mbox.Entity.Middlebox mb.Mbox.Middlebox.id)
            rule.Policy.Rule.actions
        | _ -> ())
      workload.Sim.Workload.flows;
    Array.iteri
      (fun i load ->
        Alcotest.(check (float 1e-6)) (Printf.sprintf "mbox %d" i) expected.(i) load)
      result.Sim.Flowsim.loads

let test_flowsim_lb_beats_others () =
  let _, runs = run_campus_strategies 60_000 in
  let max_of name =
    let r = List.find (fun r -> r.Sim.Experiment.strategy = name) runs in
    List.fold_left
      (fun acc nf ->
        max acc
          (Sim.Flowsim.max_load_of_nf r.Sim.Experiment.controller
             r.Sim.Experiment.result nf))
      0.0
      [ Policy.Action.FW; Policy.Action.IDS; Policy.Action.WP; Policy.Action.TM ]
  in
  let hp = max_of "HP" and rand = max_of "Rand" and lb = max_of "LB" in
  Alcotest.(check bool) "LB <= Rand" true (lb <= rand);
  Alcotest.(check bool) "LB <= HP" true (lb <= hp)

let test_flowsim_lb_close_to_lambda () =
  (* Realized LB max load must be near the LP optimum: hashing
     quantises flows, so allow 15%. *)
  let _, runs = run_campus_strategies 60_000 in
  let lb = List.find (fun r -> r.Sim.Experiment.strategy = "LB") runs in
  match lb.Sim.Experiment.lambda with
  | None -> Alcotest.fail "LB must carry lambda"
  | Some lambda ->
    let realized =
      Array.fold_left max 0.0 lb.Sim.Experiment.result.Sim.Flowsim.loads
    in
    if realized > lambda *. 1.15 +. 1000.0 then
      Alcotest.failf "realized %f far above lambda %f" realized lambda

let test_flowsim_stretch () =
  let _, runs = run_campus_strategies 3_000 in
  List.iter
    (fun (r : Sim.Experiment.strategy_run) ->
      let s = Sim.Flowsim.stretch r.Sim.Experiment.result in
      (* Enforcement detours can only lengthen paths. *)
      Alcotest.(check bool) "stretch >= 1" true (s >= 1.0);
      Alcotest.(check bool) "stretch sane" true (s < 10.0))
    runs

(* --- Pktsim ------------------------------------------------------------- *)

let pkt_config =
  { Sim.Pktsim.default_config with packet_interval = 0.5; start_window = 20.0 }

let small_pkt_setup ?(strategy = `Lb) ?(flows = 300) ?(seed = 21) () =
  let dep = campus ~seed () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed ~flows () in
  let kind =
    match strategy with
    | `Hp -> Sdm.Controller.Hot_potato
    | `Lb -> Sdm.Controller.Load_balanced (Sim.Workload.measure workload)
  in
  match Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules kind with
  | Error e -> Alcotest.fail e
  | Ok controller -> (controller, workload)

let test_pktsim_delivers_everything () =
  let controller, workload = small_pkt_setup () in
  let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  Alcotest.(check int) "all injected" workload.Sim.Workload.total_packets
    stats.Sim.Pktsim.injected_packets;
  Alcotest.(check int) "all delivered" stats.Sim.Pktsim.injected_packets
    stats.Sim.Pktsim.delivered_packets;
  Alcotest.(check int) "no drops" 0 stats.Sim.Pktsim.dropped_packets

let test_pktsim_classifier_invariant () =
  (* The classifier knob selects a matching structure, never a
     semantics: all three implement the same first-match (lowest rule
     id), so every statistic must be identical bit for bit. *)
  let controller, workload = small_pkt_setup ~flows:120 () in
  let run classifier =
    Sim.Pktsim.run
      ~config:{ pkt_config with classifier }
      ~controller ~workload ()
  in
  let reference = run Sim.Pktsim.Trie in
  List.iter
    (fun (name, classifier) ->
      let stats = run classifier in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches Trie exactly" name)
        true
        (stats = reference))
    [ ("dectree", Sim.Pktsim.Dectree); ("linear", Sim.Pktsim.Linear) ]

let test_pktsim_loads_equal_flowsim () =
  (* The headline integration invariant: per-middlebox packet loads
     from the packet-level simulation equal the flow-level ones, for
     both HP and LB, with and without label switching. *)
  List.iter
    (fun strategy ->
      let controller, workload = small_pkt_setup ~strategy () in
      let flow_result = Sim.Flowsim.run ~controller ~workload () in
      List.iter
        (fun label_switching ->
          let stats =
            Sim.Pktsim.run
              ~config:{ pkt_config with label_switching }
              ~controller ~workload ()
          in
          Array.iteri
            (fun i expected ->
              Alcotest.(check (float 1e-6))
                (Printf.sprintf "mbox %d (ls=%b)" i label_switching)
                expected stats.Sim.Pktsim.loads.(i))
            flow_result.Sim.Flowsim.loads)
        [ true; false ])
    [ `Hp; `Lb ]

let test_pktsim_flowsim_agree_on_waxman () =
  (* Cross-topology sanity for the headline invariant. *)
  let dep = Sim.Experiment.build_deployment Sim.Experiment.Waxman ~seed:17 in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:17 ~flows:120 () in
  let traffic = Sim.Workload.measure workload in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok controller ->
    let flow_result = Sim.Flowsim.run ~controller ~workload () in
    let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
    Alcotest.(check int) "no drops" 0 stats.Sim.Pktsim.dropped_packets;
    Array.iteri
      (fun i expected ->
        Alcotest.(check (float 1e-6)) (Printf.sprintf "mbox %d" i) expected
          stats.Sim.Pktsim.loads.(i))
      flow_result.Sim.Flowsim.loads

let test_pktsim_label_switching_kicks_in () =
  let controller, workload = small_pkt_setup ~flows:200 () in
  let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  Alcotest.(check bool) "control packets flowed" true
    (stats.Sim.Pktsim.control_packets > 0);
  Alcotest.(check bool) "label-switched majority" true
    (stats.Sim.Pktsim.label_switched_packets > stats.Sim.Pktsim.tunneled_packets);
  let off =
    Sim.Pktsim.run
      ~config:{ pkt_config with label_switching = false }
      ~controller ~workload ()
  in
  Alcotest.(check int) "no label switching when disabled" 0
    off.Sim.Pktsim.label_switched_packets;
  Alcotest.(check int) "no control packets when disabled" 0
    off.Sim.Pktsim.control_packets

let test_pktsim_label_switching_avoids_fragments () =
  let controller, workload = small_pkt_setup ~flows:200 () in
  let with_ls = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let without_ls =
    Sim.Pktsim.run
      ~config:{ pkt_config with label_switching = false }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "IP-over-IP fragments" true
    (without_ls.Sim.Pktsim.fragments_created > 0);
  Alcotest.(check bool) "label switching reduces fragmentation" true
    (with_ls.Sim.Pktsim.fragments_created
    < without_ls.Sim.Pktsim.fragments_created / 2)

let test_pktsim_routing_substrate_invariance () =
  (* Middlebox loads do not depend on which routing protocol built the
     routers' tables — enforcement decisions hash flows, not routes. *)
  let controller, workload = small_pkt_setup ~flows:150 () in
  let run source =
    (Sim.Pktsim.run
       ~config:{ pkt_config with table_source = source }
       ~controller ~workload ())
      .Sim.Pktsim.loads
  in
  let oracle = run Sim.Pktsim.Oracle in
  let ospf = run Sim.Pktsim.Distributed_ospf in
  let dvr = run Sim.Pktsim.Distributed_dvr in
  Array.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "ospf mbox %d" i) expected
        ospf.(i);
      Alcotest.(check (float 1e-6)) (Printf.sprintf "dvr mbox %d" i) expected
        dvr.(i))
    oracle

let test_pktsim_cache_suppresses_lookups () =
  let controller, workload = small_pkt_setup ~flows:200 () in
  let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  (* Only the first packet of a flow pays a lookup, at the proxy and at
     each chain middlebox — far fewer lookups than packet events. *)
  let flows = Array.length workload.Sim.Workload.flows in
  Alcotest.(check bool) "lookups bounded by flows x (1+chain)" true
    (stats.Sim.Pktsim.multi_field_lookups <= flows * 4);
  Alcotest.(check bool) "cache hits dominate" true
    (stats.Sim.Pktsim.cache_hits > stats.Sim.Pktsim.multi_field_lookups)

let test_pktsim_label_expiry_recovery () =
  let controller, workload = small_pkt_setup ~flows:60 () in
  (* Packets spaced wider than the label timeout: label-switched paths
     keep expiring mid-flow, packets that hit stale paths are lost, a
     teardown flows back, and the proxy re-establishes via IP-over-IP. *)
  let config =
    { pkt_config with packet_interval = 10.0; label_timeout = 3.0 }
  in
  let stats = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "misses happened" true (stats.Sim.Pktsim.label_misses > 0);
  Alcotest.(check bool) "teardowns flowed" true (stats.Sim.Pktsim.teardowns > 0);
  Alcotest.(check int) "every loss is a label miss"
    stats.Sim.Pktsim.label_misses stats.Sim.Pktsim.dropped_packets;
  Alcotest.(check int) "everything else delivered"
    (stats.Sim.Pktsim.injected_packets - stats.Sim.Pktsim.label_misses)
    stats.Sim.Pktsim.delivered_packets;
  (* Recovery really happens: the flow keeps re-establishing, so
     tunnelled legs outnumber flows (one initial establishment each). *)
  Alcotest.(check bool) "re-establishments" true
    (stats.Sim.Pktsim.control_packets > Array.length workload.Sim.Workload.flows);
  (* With a comfortable timeout the same setup loses nothing. *)
  let healthy =
    Sim.Pktsim.run
      ~config:{ config with label_timeout = 1e6 }
      ~controller ~workload ()
  in
  Alcotest.(check int) "no misses with long timeout" 0
    healthy.Sim.Pktsim.label_misses;
  Alcotest.(check int) "all delivered" healthy.Sim.Pktsim.injected_packets
    healthy.Sim.Pktsim.delivered_packets

let test_pktsim_wp_cache_short_circuit () =
  (* Figure 3's chain: WP first; cached flows stop at the web proxy and
     never load the downstream FW/IDS. *)
  let dep = campus () in
  let rules =
    Policy.Rule.index
      [
        Policy.Descriptor.make
          ~src:(Sdm.Deployment.subnet_of dep 0)
          ~dport:(Policy.Descriptor.Port 80) ();
      ]
      [ Policy.Action.[ WP; FW; IDS ] ]
  in
  let flows =
    Array.init 60 (fun i ->
        {
          Sim.Workload.id = i;
          flow =
            Netpkt.Flow.make
              ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 0) (2 + i))
              ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 3) (2 + i))
              ~proto:6 ~sport:(30000 + i) ~dport:80;
          src_proxy = 0;
          dst_proxy = 3;
          rule_id = Some 0;
          intended_class = Sim.Workload.One_to_many;
          packets = 10;
          packet_bytes = 576;
        })
  in
  let workload = { Sim.Workload.rules; flows; total_packets = 600 } in
  let controller =
    match Sdm.Controller.configure dep ~rules Sdm.Controller.Hot_potato with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let load_of stats nf =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) -> acc +. stats.Sim.Pktsim.loads.(m.id))
      0.0
      (Sdm.Deployment.middleboxes_of dep nf)
  in
  let cached =
    Sim.Pktsim.run
      ~config:{ pkt_config with wp_cache_hit_ratio = 0.5 }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "some flows served from cache" true
    (cached.Sim.Pktsim.wp_cache_served > 0);
  Alcotest.(check int) "responses count as deliveries"
    cached.Sim.Pktsim.injected_packets cached.Sim.Pktsim.delivered_packets;
  Alcotest.(check bool) "cached flows skip the downstream chain" true
    (load_of cached Policy.Action.FW < load_of cached Policy.Action.WP);
  Alcotest.(check (float 1e-9)) "FW and IDS see the same survivors"
    (load_of cached Policy.Action.FW)
    (load_of cached Policy.Action.IDS);
  let uncached = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  Alcotest.(check int) "ratio 0: nothing cached" 0
    uncached.Sim.Pktsim.wp_cache_served;
  Alcotest.(check (float 1e-9)) "ratio 0: full chain everywhere"
    (load_of uncached Policy.Action.WP)
    (load_of uncached Policy.Action.FW)

let test_pktsim_ecmp_invariance () =
  (* ECMP spreading changes paths, never middlebox loads or delivery. *)
  let controller, workload = small_pkt_setup ~flows:150 () in
  let plain = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let ecmp =
    Sim.Pktsim.run ~config:{ pkt_config with ecmp = true } ~controller ~workload ()
  in
  Alcotest.(check int) "all delivered" ecmp.Sim.Pktsim.injected_packets
    ecmp.Sim.Pktsim.delivered_packets;
  Alcotest.(check int) "no drops" 0 ecmp.Sim.Pktsim.dropped_packets;
  Array.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "mbox %d" i) expected
        ecmp.Sim.Pktsim.loads.(i))
    plain.Sim.Pktsim.loads

let test_pktsim_latency_overhead () =
  (* Enforcement detours must show up as end-to-end latency: the same
     traffic with the policy tables emptied is strictly faster. *)
  let controller, workload = small_pkt_setup ~flows:150 () in
  let enforced = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let no_rules = { workload with Sim.Workload.rules = [] } in
  let bare_controller =
    match
      Sdm.Controller.configure controller.Sdm.Controller.deployment ~rules:[]
        Sdm.Controller.Hot_potato
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let plain =
    Sim.Pktsim.run ~config:pkt_config ~controller:bare_controller
      ~workload:no_rules ()
  in
  Alcotest.(check bool) "latency measured" true
    (enforced.Sim.Pktsim.latency_mean > 0.0 && plain.Sim.Pktsim.latency_mean > 0.0);
  Alcotest.(check bool) "p50 <= p99" true
    (enforced.Sim.Pktsim.latency_p50 <= enforced.Sim.Pktsim.latency_p99);
  Alcotest.(check bool) "enforcement adds latency" true
    (enforced.Sim.Pktsim.latency_mean > plain.Sim.Pktsim.latency_mean);
  Alcotest.(check (float 1e-9)) "plain run touches no middlebox" 0.0
    (Array.fold_left ( +. ) 0.0 plain.Sim.Pktsim.loads)

let test_pktsim_same_seed_deterministic () =
  (* Two runs of the same scenario must agree on every stats field,
     including the engine counters and per-middlebox loads. *)
  let controller, workload = small_pkt_setup ~flows:150 () in
  let a = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let b = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  Alcotest.(check bool) "identical stats" true
    (a.Sim.Pktsim.loads = b.Sim.Pktsim.loads
    && { a with Sim.Pktsim.loads = [||] } = { b with Sim.Pktsim.loads = [||] })

(* Every stats field of a seed scenario, captured from the pre-rewrite
   per-hop event cascade.  The hop fast-forwarding rewrite must
   reproduce these bit-exactly: hex float literals pin the exact
   double, not a rounding of it. *)
type pinned = {
  e_injected : int;
  e_control : int;
  e_lookups : int;
  e_hits : int;
  e_tunneled : int;
  e_ls : int;
  e_frags : int;
  e_hops : int;
  e_events : int;
  e_sim_time : float;
  e_mean : float;
  e_p50 : float;
  e_p99 : float;
  e_loads_sum : float;
  e_loads_max : float;
}

let check_pinned name (p : pinned) (s : Sim.Pktsim.stats) =
  let chk field = Alcotest.(check int) (name ^ " " ^ field) in
  let chkf field = Alcotest.(check (float 0.0)) (name ^ " " ^ field) in
  chk "injected" p.e_injected s.Sim.Pktsim.injected_packets;
  chk "delivered" p.e_injected s.Sim.Pktsim.delivered_packets;
  chk "dropped" 0 s.Sim.Pktsim.dropped_packets;
  chk "control" p.e_control s.Sim.Pktsim.control_packets;
  chk "lookups" p.e_lookups s.Sim.Pktsim.multi_field_lookups;
  chk "hits" p.e_hits s.Sim.Pktsim.cache_hits;
  chk "negative hits" 0 s.Sim.Pktsim.cache_negative_hits;
  chk "tunneled" p.e_tunneled s.Sim.Pktsim.tunneled_packets;
  chk "label switched" p.e_ls s.Sim.Pktsim.label_switched_packets;
  chk "fragments" p.e_frags s.Sim.Pktsim.fragments_created;
  chk "hops" p.e_hops s.Sim.Pktsim.router_hops;
  chk "label misses" 0 s.Sim.Pktsim.label_misses;
  chk "teardowns" 0 s.Sim.Pktsim.teardowns;
  chk "wp served" 0 s.Sim.Pktsim.wp_cache_served;
  chk "evictions" 0 s.Sim.Pktsim.cache_evictions;
  chk "events scheduled" p.e_events s.Sim.Pktsim.events_scheduled;
  chk "events processed" p.e_events s.Sim.Pktsim.events_processed;
  chkf "sim_time" p.e_sim_time s.Sim.Pktsim.sim_time;
  chkf "latency mean" p.e_mean s.Sim.Pktsim.latency_mean;
  chkf "latency p50" p.e_p50 s.Sim.Pktsim.latency_p50;
  chkf "latency p99" p.e_p99 s.Sim.Pktsim.latency_p99;
  chkf "loads sum" p.e_loads_sum
    (Array.fold_left ( +. ) 0.0 s.Sim.Pktsim.loads);
  chkf "loads max" p.e_loads_max (Array.fold_left max 0.0 s.Sim.Pktsim.loads)

let test_pktsim_pinned_equivalence () =
  (* The built-in correctness oracle for the fast-forward rewrite: the
     seed scenarios with label switching and ECMP toggled, pinned to
     the per-hop cascade's exact output.  ECMP must change nothing —
     the hash walk visits the same arrays in the same order. *)
  let campus_ls =
    {
      e_injected = 5212; e_control = 523; e_lookups = 1000; e_hits = 5455;
      e_tunneled = 1243; e_ls = 12363; e_frags = 689; e_hops = 29570;
      e_events = 24553;
      e_sim_time = 0x1.68ab6f6a54e73p+9; e_mean = 0x1.cea595abacde8p-1;
      e_p50 = 0x1.ccccccccccd4p-1; e_p99 = 0x1.333333333338p+0;
      e_loads_sum = 0x1.a93p+13; e_loads_max = 0x1.e7p+10;
    }
  in
  let campus_tun =
    { campus_ls with
      e_control = 0; e_hits = 17818; e_tunneled = 13606; e_ls = 0;
      e_frags = 6265; e_hops = 28278; e_events = 24030 }
  in
  let waxman_ls =
    {
      e_injected = 5335; e_control = 245; e_lookups = 400; e_hits = 5510;
      e_tunneled = 575; e_ls = 10942; e_frags = 262; e_hops = 37564;
      e_events = 22432;
      e_sim_time = 0x1.2a5424c38f6cp+10; e_mean = 0x1.01c8f88620aa3p+0;
      e_p50 = 0x1.cccccccccd4p-1; e_p99 = 0x1.4cccccccccd2p+0;
      e_loads_sum = 0x1.67e8p+13; e_loads_max = 0x1.632p+11;
    }
  in
  let waxman_tun =
    { waxman_ls with
      e_control = 0; e_hits = 16452; e_tunneled = 11517; e_ls = 0;
      e_frags = 3705; e_hops = 36870; e_events = 22187 }
  in
  let scenario name scen ~seed ~flows expect_ls expect_tun =
    let dep = Sim.Experiment.build_deployment scen ~seed in
    let workload = Sim.Workload.generate ~deployment:dep ~seed ~flows () in
    let traffic = Sim.Workload.measure workload in
    match
      Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Error e -> Alcotest.fail e
    | Ok controller ->
      List.iter
        (fun (label_switching, ecmp) ->
          let stats =
            Sim.Pktsim.run
              ~config:{ pkt_config with label_switching; ecmp }
              ~controller ~workload ()
          in
          let expect = if label_switching then expect_ls else expect_tun in
          check_pinned
            (Printf.sprintf "%s ls=%b ecmp=%b" name label_switching ecmp)
            expect stats)
        [ (true, false); (false, false); (true, true); (false, true) ]
  in
  scenario "campus" Sim.Experiment.Campus ~seed:21 ~flows:300 campus_ls
    campus_tun;
  scenario "waxman" Sim.Experiment.Waxman ~seed:17 ~flows:120 waxman_ls
    waxman_tun

let test_pktsim_event_count_regression () =
  (* Fast-forwarding schedules one event per path segment, not per
     hop: the engine fires far fewer events than the hops it
     simulates, and (with no losses) exactly one event per packet
     leg plus deliveries. *)
  let controller, workload = small_pkt_setup () in
  let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  Alcotest.(check bool) "well below one event per hop" true
    (stats.Sim.Pktsim.events_processed < stats.Sim.Pktsim.router_hops);
  Alcotest.(check int) "one event per leg"
    (stats.Sim.Pktsim.injected_packets + stats.Sim.Pktsim.tunneled_packets
    + stats.Sim.Pktsim.label_switched_packets
    + stats.Sim.Pktsim.control_packets + stats.Sim.Pktsim.delivered_packets)
    stats.Sim.Pktsim.events_processed;
  Alcotest.(check int) "queue fully drained"
    stats.Sim.Pktsim.events_scheduled stats.Sim.Pktsim.events_processed

let qcheck_pktsim_chaos =
  (* Robustness sweep: random knob combinations must preserve the
     global invariants — everything injected is accounted for, and
     with reliable label state the middlebox loads match the
     flow-level semantics exactly. *)
  QCheck.Test.make ~count:12 ~name:"pktsim invariants under random configs"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let label_switching = Stdx.Rng.bool rng in
      let ecmp = Stdx.Rng.bool rng in
      let service_rate =
        if Stdx.Rng.bool rng then infinity else 2.0 +. Stdx.Rng.float rng 20.0
      in
      let cache_capacity =
        if Stdx.Rng.bool rng then None else Some (8 + Stdx.Rng.int rng 64)
      in
      let table_source =
        Stdx.Rng.choose rng
          [| Sim.Pktsim.Oracle; Sim.Pktsim.Distributed_ospf;
             Sim.Pktsim.Distributed_dvr |]
      in
      let config =
        {
          Sim.Pktsim.default_config with
          label_switching;
          ecmp;
          service_rate;
          cache_capacity;
          table_source;
          packet_interval = 0.5;
          start_window = 10.0;
        }
      in
      let controller, workload = small_pkt_setup ~flows:60 ~seed:(seed mod 97) () in
      let stats = Sim.Pktsim.run ~config ~controller ~workload () in
      let flow_result = Sim.Flowsim.run ~controller ~workload () in
      stats.Sim.Pktsim.dropped_packets = 0
      && stats.Sim.Pktsim.delivered_packets = stats.Sim.Pktsim.injected_packets
      && stats.Sim.Pktsim.injected_packets = workload.Sim.Workload.total_packets
      && Array.for_all2
           (fun a b -> abs_float (a -. b) < 1e-6)
           flow_result.Sim.Flowsim.loads stats.Sim.Pktsim.loads)

(* --- Experiments --------------------------------------------------------- *)

let test_experiment_figure_small () =
  let fig =
    Sim.Experiment.run_figure Sim.Experiment.Campus
      ~flow_counts:[ 3_000; 6_000 ] ()
  in
  Alcotest.(check int) "two points" 2 (List.length fig.Sim.Experiment.points);
  List.iter
    (fun (p : Sim.Experiment.point) ->
      Alcotest.(check int) "four middlebox types" 4
        (List.length p.Sim.Experiment.max_loads);
      List.iter
        (fun (_, (hp, rand, lb)) ->
          Alcotest.(check bool) "loads positive" true
            (hp > 0.0 && rand > 0.0 && lb > 0.0))
        p.Sim.Experiment.max_loads)
    fig.Sim.Experiment.points

let test_experiment_linear_growth () =
  (* Max loads grow roughly linearly with volume (paper: "the maximum
     loads increase linearly with traffic volume"). *)
  let fig =
    Sim.Experiment.run_figure Sim.Experiment.Campus
      ~flow_counts:[ 10_000; 40_000 ] ()
  in
  match fig.Sim.Experiment.points with
  | [ p1; p4 ] ->
    List.iter
      (fun nf ->
        let _, _, lb1 = List.assoc nf p1.Sim.Experiment.max_loads in
        let _, _, lb4 = List.assoc nf p4.Sim.Experiment.max_loads in
        let ratio = lb4 /. lb1 in
        if ratio < 2.0 || ratio > 8.0 then
          Alcotest.failf "%s: 4x flows gave %.2fx load"
            (Policy.Action.nf_to_string nf) ratio)
      [ Policy.Action.FW; Policy.Action.IDS ]
  | _ -> Alcotest.fail "expected two points"

let test_experiment_table3_shape () =
  let t3 = Sim.Experiment.run_table3 ~flows:30_000 () in
  let rows = t3.Sim.Experiment.t3_rows in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  Alcotest.(check bool) "events counted" true (t3.Sim.Experiment.t3_events > 0);
  List.iter
    (fun (r : Sim.Experiment.table3_row) ->
      (* LB spread is the tightest of the three strategies. *)
      let spread max_ min_ = max_ -. min_ in
      Alcotest.(check bool) "lb spread < hp spread" true
        (spread r.Sim.Experiment.lb_max r.Sim.Experiment.lb_min
        <= spread r.Sim.Experiment.hp_max r.Sim.Experiment.hp_min);
      Alcotest.(check bool) "max >= min" true
        (r.Sim.Experiment.lb_max >= r.Sim.Experiment.lb_min))
    rows

let test_queue_ablation () =
  let q = Sim.Experiment.ablation_queue ~flows:200 () in
  Alcotest.(check bool) "finite rate" true (q.Sim.Experiment.service_rate > 0.0);
  (* Calibration targets ~50% utilisation for LB; HP concentrates and
     must run hotter and slower. *)
  Alcotest.(check bool) "HP hotter than LB" true
    (q.Sim.Experiment.hp_util_max > q.Sim.Experiment.lb_util_max);
  Alcotest.(check bool) "HP slower (mean)" true
    (q.Sim.Experiment.hp_latency_mean > q.Sim.Experiment.lb_latency_mean);
  Alcotest.(check bool) "HP slower (p99)" true
    (q.Sim.Experiment.hp_latency_p99 > q.Sim.Experiment.lb_latency_p99)

let test_queueing_preserves_loads () =
  (* Finite service delays packets but never changes which middlebox
     processes them. *)
  let controller, workload = small_pkt_setup ~flows:100 () in
  let infinite = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let finite =
    Sim.Pktsim.run
      ~config:{ pkt_config with service_rate = 5.0 }
      ~controller ~workload ()
  in
  Alcotest.(check int) "all delivered" finite.Sim.Pktsim.injected_packets
    finite.Sim.Pktsim.delivered_packets;
  Array.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "mbox %d" i) expected
        finite.Sim.Pktsim.loads.(i))
    infinite.Sim.Pktsim.loads;
  Alcotest.(check bool) "queueing adds latency" true
    (finite.Sim.Pktsim.latency_mean > infinite.Sim.Pktsim.latency_mean)

let test_epoch_adaptation () =
  let dep = campus () in
  let report = Sim.Epochsim.run ~deployment:dep ~epochs:4 ~base_flows:10_000 () in
  let metrics = report.Sim.Epochsim.ep_rows in
  Alcotest.(check int) "four epochs" 4 (List.length metrics);
  Alcotest.(check bool) "events counted" true (report.Sim.Epochsim.ep_events > 0);
  (match metrics with
  | first :: _ ->
    (* Epoch 0 has no prior measurement: stale LB *is* hot-potato. *)
    Alcotest.(check (float 1e-6)) "epoch 0 falls back to HP"
      first.Sim.Epochsim.hp_max first.Sim.Epochsim.stale_lb_max
  | [] -> Alcotest.fail "no metrics");
  List.iter
    (fun (m : Sim.Epochsim.epoch_metrics) ->
      (* Clairvoyant planning can only help. *)
      Alcotest.(check bool) "clairvoyant <= stale" true
        (m.Sim.Epochsim.clairvoyant_lb_max <= m.Sim.Epochsim.stale_lb_max +. 1.0);
      Alcotest.(check bool) "clairvoyant <= HP" true
        (m.Sim.Epochsim.clairvoyant_lb_max <= m.Sim.Epochsim.hp_max +. 1.0);
      Alcotest.(check bool) "gap >= 1" true (m.Sim.Epochsim.staleness_gap >= 0.99))
    metrics;
  (* After the first measurement arrives, stale LB beats hot-potato. *)
  List.iteri
    (fun i (m : Sim.Epochsim.epoch_metrics) ->
      if i > 0 then
        Alcotest.(check bool) "stale LB < HP after warm-up" true
          (m.Sim.Epochsim.stale_lb_max < m.Sim.Epochsim.hp_max))
    metrics

let test_flowsim_trace () =
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:500 () in
  let traffic = Sim.Workload.measure workload in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok controller ->
    (* Every enforced flow's trace follows its rule's action list in
       order, with matching middlebox functions. *)
    Array.iter
      (fun (fs : Sim.Workload.flow_spec) ->
        let rule, chain = Sim.Flowsim.trace ~controller fs.Sim.Workload.flow in
        Alcotest.(check (option int)) "same rule as workload"
          fs.Sim.Workload.rule_id
          (Option.map (fun r -> r.Policy.Rule.id) rule);
        match rule with
        | None -> Alcotest.(check int) "no chain" 0 (List.length chain)
        | Some r ->
          Alcotest.(check (list string)) "chain order = action list"
            (List.map Policy.Action.nf_to_string r.Policy.Rule.actions)
            (List.map
               (fun (m : Mbox.Middlebox.t) -> Policy.Action.nf_to_string m.nf)
               chain))
      workload.Sim.Workload.flows;
    (* Source outside every stub: rejected. *)
    let alien =
      Netpkt.Flow.make ~src:(Netpkt.Addr.of_string "99.0.0.1")
        ~dst:(Netpkt.Addr.of_string "10.0.0.5") ~proto:6 ~sport:1 ~dport:2
    in
    match Sim.Flowsim.trace ~controller alien with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected rejection of a foreign source"

let test_controlplane_pricing () =
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let price kind =
    match Sdm.Controller.configure dep ~rules kind with
    | Ok c -> Sim.Controlplane.price c ~traffic
    | Error e -> Alcotest.fail e
  in
  let hp = price Sdm.Controller.Hot_potato in
  let lb = price (Sdm.Controller.Load_balanced traffic) in
  Alcotest.(check int) "manages proxies + middleboxes" 32 lb.Sim.Controlplane.devices_managed;
  Alcotest.(check bool) "LB ships more config (weights)" true
    (lb.Sim.Controlplane.config_bytes > hp.Sim.Controlplane.config_bytes);
  Alcotest.(check bool) "byte-hops >= bytes" true
    (lb.Sim.Controlplane.config_byte_hops >= lb.Sim.Controlplane.config_bytes);
  Alcotest.(check bool) "configuration time positive" true
    (lb.Sim.Controlplane.time_to_configure > 0.0);
  Alcotest.(check bool) "reports non-empty" true
    (lb.Sim.Controlplane.report_bytes_per_epoch > 0)

let test_controlplane_device_indexing () =
  (* The flat device index (proxies first, then middleboxes) is the
     convention shared by per-device statistics and the audit layer's
     Config_install events — it must be a bijection. *)
  let dep = campus () in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let n_mboxes = Array.length dep.Sdm.Deployment.middleboxes in
  let count = Sim.Controlplane.device_count dep in
  Alcotest.(check int) "count = proxies + middleboxes"
    (n_proxies + n_mboxes) count;
  for d = 0 to count - 1 do
    let e = Sim.Controlplane.entity_of_device dep d in
    Alcotest.(check int)
      ("round-trip device " ^ string_of_int d)
      d
      (Sim.Controlplane.device_of_entity dep e)
  done;
  Alcotest.(check bool) "proxies come first" true
    (Sim.Controlplane.entity_of_device dep 0 = Mbox.Entity.Proxy 0);
  Alcotest.(check bool) "middleboxes follow" true
    (Sim.Controlplane.entity_of_device dep n_proxies = Mbox.Entity.Middlebox 0);
  (match Sim.Controlplane.entity_of_device dep count with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range device accepted");
  match Sim.Controlplane.entity_of_device dep (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative device accepted"

let test_controlplane_entity_bytes () =
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:1_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let configure kind =
    match Sdm.Controller.configure dep ~rules kind with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let hp = configure Sdm.Controller.Hot_potato in
  let lb = configure (Sdm.Controller.Load_balanced traffic) in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        ("positive config size for " ^ Mbox.Entity.to_string e)
        true
        (Sim.Controlplane.entity_bytes lb e > 0))
    [ Mbox.Entity.Proxy 0; Mbox.Entity.Middlebox 0 ];
  (* LB configurations carry the weight tables; hot-potato ones don't. *)
  Alcotest.(check bool) "LB proxy config is no smaller" true
    (Sim.Controlplane.entity_bytes lb (Mbox.Entity.Proxy 0)
    >= Sim.Controlplane.entity_bytes hp (Mbox.Entity.Proxy 0))

let test_experiment_k1_equals_hp () =
  (* k = 1 degenerates the LB candidate sets to the closest middlebox:
     identical loads to hot-potato. *)
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:2_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let hp =
    match Sdm.Controller.configure dep ~rules Sdm.Controller.Hot_potato with
    | Ok c -> Sim.Flowsim.run ~controller:c ~workload ()
    | Error e -> Alcotest.fail e
  in
  let lb1 =
    match
      Sdm.Controller.configure dep ~rules ~k:(fun _ -> 1)
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> Sim.Flowsim.run ~controller:c ~workload ()
    | Error e -> Alcotest.fail e
  in
  Array.iteri
    (fun i hp_load ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "mbox %d" i) hp_load
        lb1.Sim.Flowsim.loads.(i))
    hp.Sim.Flowsim.loads

(* --- Pktsim under injected faults --------------------------------------- *)

let single_fw_flow ~packets =
  (* One hand-built flow through a [FW]-only chain, for exact-count
     fault and soft-state tests. *)
  let dep = campus () in
  let rules =
    Policy.Rule.index
      [
        Policy.Descriptor.make
          ~src:(Sdm.Deployment.subnet_of dep 0)
          ~dport:(Policy.Descriptor.Port 443) ();
      ]
      [ Policy.Action.[ FW ] ]
  in
  let flow =
    Netpkt.Flow.make
      ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 0) 2)
      ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 3) 2)
      ~proto:6 ~sport:40000 ~dport:443
  in
  let flows =
    [|
      {
        Sim.Workload.id = 0;
        flow;
        src_proxy = 0;
        dst_proxy = 3;
        rule_id = Some 0;
        intended_class = Sim.Workload.One_to_one;
        packets;
        packet_bytes = 576;
      };
    |]
  in
  let workload = { Sim.Workload.rules; flows; total_packets = packets } in
  let controller =
    match Sdm.Controller.configure dep ~rules Sdm.Controller.Hot_potato with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (controller, rules, flow, workload)

let test_pktsim_teardown_exact_counters () =
  (* One flow, packets spaced wider than the label timeout: label
     switching and IP-over-IP re-establishment alternate packet by
     packet, so every soft-state counter is exact.  p1 tunnels and
     establishes; p2's label has expired (miss, drop, teardown back to
     the proxy); p3 re-establishes; and so on. *)
  let controller, _, _, workload = single_fw_flow ~packets:6 in
  let config =
    {
      pkt_config with
      packet_interval = 10.0;
      label_timeout = 3.0;
      start_window = 1.0;
    }
  in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check int) "injected" 6 s.Sim.Pktsim.injected_packets;
  Alcotest.(check int) "tunneled legs" 3 s.Sim.Pktsim.tunneled_packets;
  Alcotest.(check int) "label misses" 3 s.Sim.Pktsim.label_misses;
  Alcotest.(check int) "dropped" 3 s.Sim.Pktsim.dropped_packets;
  Alcotest.(check int) "teardowns" 3 s.Sim.Pktsim.teardowns;
  Alcotest.(check int) "control packets" 3 s.Sim.Pktsim.control_packets;
  Alcotest.(check int) "delivered" 3 s.Sim.Pktsim.delivered_packets;
  Alcotest.(check int) "no leg completes label-switched" 0
    s.Sim.Pktsim.label_switched_packets;
  Alcotest.(check int) "expiry is not a policy violation" 0
    s.Sim.Pktsim.policy_violations

let test_pktsim_crash_failover_relabels () =
  (* Mid-run crash of the one middlebox serving a label-switched flow.
     During the detection window the proxy keeps steering into the dead
     box (counted violations); once the detector flips, it fails over
     to the backup, whose label table has no entry — exactly one miss
     and teardown — then re-establishes, and label switching resumes on
     the backup. *)
  let controller, rules, flow, workload = single_fw_flow ~packets:40 in
  let rule = List.hd rules in
  let victim =
    (Sdm.Controller.next_hop controller (Mbox.Entity.Proxy 0) ~rule
       ~nf:Policy.Action.FW flow)
      .Mbox.Middlebox.id
  in
  let backup =
    (Sdm.Controller.next_hop
       ~alive:(fun id -> id <> victim)
       controller (Mbox.Entity.Proxy 0) ~rule ~nf:Policy.Action.FW flow)
      .Mbox.Middlebox.id
  in
  let schedule =
    Fault.Schedule.make Fault.Schedule.[ { at = 15.0; what = Mbox_crash victim } ]
  in
  let config =
    {
      pkt_config with
      packet_interval = 1.0;
      start_window = 1.0;
      faults = Some schedule;
      detection_delay = 3.0;
    }
  in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "violations in the blind window" true
    (s.Sim.Pktsim.policy_violations >= 2 && s.Sim.Pktsim.policy_violations <= 6);
  Alcotest.(check int) "all fault drops are dead-box hits"
    s.Sim.Pktsim.policy_violations s.Sim.Pktsim.fault_dropped;
  Alcotest.(check int) "one label miss at the backup" 1 s.Sim.Pktsim.label_misses;
  Alcotest.(check int) "one teardown" 1 s.Sim.Pktsim.teardowns;
  Alcotest.(check int) "establish + re-establish" 2 s.Sim.Pktsim.control_packets;
  Alcotest.(check int) "drops fully explained"
    (s.Sim.Pktsim.policy_violations + s.Sim.Pktsim.label_misses)
    s.Sim.Pktsim.dropped_packets;
  Alcotest.(check int) "rest delivered"
    (s.Sim.Pktsim.injected_packets - s.Sim.Pktsim.dropped_packets)
    s.Sim.Pktsim.delivered_packets;
  Alcotest.(check bool) "backup label-switches the tail" true
    (s.Sim.Pktsim.loads.(backup) >= 2.0);
  Alcotest.(check bool) "victim stopped absorbing" true
    (s.Sim.Pktsim.loads.(victim) < 40.0);
  Alcotest.(check bool) "violation tail bounded by detection" true
    (s.Sim.Pktsim.last_violation_time < 15.0 +. 3.0 +. 1.0);
  (* Same schedule, same seed: bit-identical stats. *)
  let again = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "deterministic replay" true
    ({ again with Sim.Pktsim.loads = [||] } = { s with Sim.Pktsim.loads = [||] }
    && again.Sim.Pktsim.loads = s.Sim.Pktsim.loads);
  (* No failover: every post-crash packet dies in the dead box and the
     bleeding never stops. *)
  let nf =
    Sim.Pktsim.run
      ~config:{ config with failover = false }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "no failover bleeds to the end" true
    (nf.Sim.Pktsim.policy_violations > 20);
  Alcotest.(check int) "no failover: no re-establishment" 1
    nf.Sim.Pktsim.control_packets;
  Alcotest.(check bool) "failover strictly better" true
    (s.Sim.Pktsim.policy_violations < nf.Sim.Pktsim.policy_violations)

let test_pktsim_link_flap_load_invariance () =
  (* A mid-run link failure with live OSPF reconvergence, then
     restoration: paths change, enforcement decisions do not — loads
     are bit-identical to the calm run and nothing is lost. *)
  let controller, workload = small_pkt_setup ~flows:100 () in
  let calm = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let topo = (campus ~seed:21 ()).Sdm.Deployment.topo in
  let gw = List.hd (Netgraph.Topology.gateways topo) in
  let core =
    List.find_map
      (fun { Netgraph.Graph.dst; _ } ->
        match Netgraph.Topology.role topo dst with
        | Netgraph.Topology.Core -> Some dst
        | _ -> None)
      (Netgraph.Graph.neighbors topo.Netgraph.Topology.graph gw)
    |> Option.get
  in
  let schedule =
    Fault.Schedule.make
      Fault.Schedule.
        [
          { at = 0.3 *. calm.Sim.Pktsim.sim_time; what = Link_fail (gw, core) };
          { at = 0.6 *. calm.Sim.Pktsim.sim_time; what = Link_restore (gw, core) };
        ]
  in
  let s =
    Sim.Pktsim.run
      ~config:{ pkt_config with faults = Some schedule }
      ~controller ~workload ()
  in
  Alcotest.(check int) "all delivered" s.Sim.Pktsim.injected_packets
    s.Sim.Pktsim.delivered_packets;
  Alcotest.(check int) "no drops" 0 s.Sim.Pktsim.dropped_packets;
  Alcotest.(check int) "no violations" 0 s.Sim.Pktsim.policy_violations;
  Array.iteri
    (fun i expected ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "mbox %d load" i) expected
        s.Sim.Pktsim.loads.(i))
    calm.Sim.Pktsim.loads

let test_pktsim_control_loss_retries () =
  (* A lossy control plane delays label establishment but never loses
     it for good: retransmission masks every loss, and data packets
     just keep tunnelling until the confirmation lands. *)
  let controller, workload = small_pkt_setup ~flows:150 () in
  let schedule = Fault.Schedule.make ~control_loss:0.3 ~loss_seed:7 [] in
  let s =
    Sim.Pktsim.run
      ~config:{ pkt_config with faults = Some schedule }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "control packets were lost" true
    (s.Sim.Pktsim.control_lost > 0);
  Alcotest.(check bool) "retries fired" true (s.Sim.Pktsim.control_retries > 0);
  Alcotest.(check int) "all delivered" s.Sim.Pktsim.injected_packets
    s.Sim.Pktsim.delivered_packets;
  Alcotest.(check int) "no drops" 0 s.Sim.Pktsim.dropped_packets;
  Alcotest.(check bool) "label switching still engages" true
    (s.Sim.Pktsim.label_switched_packets > 0)

let test_pktsim_link_loss_accounted () =
  (* Per-link data loss: packets disappear mid-path but never silently
     — every one is counted dropped at the lossy link. *)
  let controller, workload = small_pkt_setup ~flows:100 () in
  let schedule = Fault.Schedule.make ~link_loss:0.02 ~loss_seed:11 [] in
  let s =
    Sim.Pktsim.run
      ~config:{ pkt_config with faults = Some schedule }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "some packets lost" true (s.Sim.Pktsim.fault_dropped > 0);
  Alcotest.(check int) "every loss accounted" s.Sim.Pktsim.injected_packets
    (s.Sim.Pktsim.delivered_packets + s.Sim.Pktsim.dropped_packets)

let qcheck_pktsim_random_fault_schedules =
  (* Chaos property: any *valid* random fault schedule — crashes,
     recoveries, link flaps, data and control loss — preserves packet
     conservation and never aborts the run.  Schedules are generated
     stateful-valid (a recover needs a preceding crash, etc.), so
     [Pktsim.run]'s validation gate accepts them; the invariants then
     hold whatever the faults did. *)
  QCheck.Test.make ~count:24 ~name:"pktsim conservation under random faults"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create (seed + 1) in
      let dep = campus ~seed:21 () in
      let n_mboxes = Array.length dep.Sdm.Deployment.middleboxes in
      let topo = dep.Sdm.Deployment.topo in
      (* Fault candidate links: gateway-core only.  Campus cores are
         dual-homed, so one such link down keeps the graph connected. *)
      let links =
        List.concat_map
          (fun gw ->
            List.filter_map
              (fun { Netgraph.Graph.dst; _ } ->
                match Netgraph.Topology.role topo dst with
                | Netgraph.Topology.Core -> Some (gw, dst)
                | _ -> None)
              (Netgraph.Graph.neighbors topo.Netgraph.Topology.graph gw))
          (Netgraph.Topology.gateways topo)
        |> Array.of_list
      in
      let mbox_down = Array.make n_mboxes false in
      let link_down = ref None in
      let events = ref [] in
      let t = ref 0.0 in
      for _ = 1 to 1 + Stdx.Rng.int rng 6 do
        t := !t +. 1.0 +. Stdx.Rng.float rng 25.0;
        let up_boxes =
          List.filter (fun i -> not mbox_down.(i)) (List.init n_mboxes Fun.id)
        in
        let down_boxes =
          List.filter (fun i -> mbox_down.(i)) (List.init n_mboxes Fun.id)
        in
        let choices =
          (if up_boxes <> [] then [ `Crash ] else [])
          @ (if down_boxes <> [] then [ `Recover ] else [])
          @ (match !link_down with
            | None when Array.length links > 0 -> [ `Link_fail ]
            | Some _ -> [ `Link_restore ]
            | None -> [])
        in
        let what =
          match Stdx.Rng.choose rng (Array.of_list choices) with
          | `Crash ->
            let id = List.nth up_boxes (Stdx.Rng.int rng (List.length up_boxes)) in
            mbox_down.(id) <- true;
            Fault.Schedule.Mbox_crash id
          | `Recover ->
            let id =
              List.nth down_boxes (Stdx.Rng.int rng (List.length down_boxes))
            in
            mbox_down.(id) <- false;
            Fault.Schedule.Mbox_recover id
          | `Link_fail ->
            let u, v = links.(Stdx.Rng.int rng (Array.length links)) in
            link_down := Some (u, v);
            Fault.Schedule.Link_fail (u, v)
          | `Link_restore ->
            let u, v = Option.get !link_down in
            link_down := None;
            Fault.Schedule.Link_restore (u, v)
        in
        events := { Fault.Schedule.at = !t; what } :: !events
      done;
      let schedule =
        Fault.Schedule.make
          ~link_loss:(Stdx.Rng.float rng 0.05)
          ~control_loss:(Stdx.Rng.float rng 0.3)
          ~loss_seed:(seed + 7) (List.rev !events)
      in
      let controller, workload = small_pkt_setup ~flows:60 ~seed:21 () in
      let config =
        {
          pkt_config with
          faults = Some schedule;
          detection_delay = 1.0 +. Stdx.Rng.float rng 20.0;
        }
      in
      let s = Sim.Pktsim.run ~config ~controller ~workload () in
      let again = Sim.Pktsim.run ~config ~controller ~workload () in
      (* Conservation: everything injected is delivered or counted
         dropped; violations and fault losses are within the drops. *)
      s.Sim.Pktsim.injected_packets
      = s.Sim.Pktsim.delivered_packets + s.Sim.Pktsim.dropped_packets
      && s.Sim.Pktsim.injected_packets = workload.Sim.Workload.total_packets
      && s.Sim.Pktsim.fault_dropped <= s.Sim.Pktsim.dropped_packets
      && s.Sim.Pktsim.policy_violations <= s.Sim.Pktsim.dropped_packets
      (* Replaying the same schedule is bit-identical. *)
      && { again with Sim.Pktsim.loads = [||] } = { s with Sim.Pktsim.loads = [||] }
      && again.Sim.Pktsim.loads = s.Sim.Pktsim.loads)

let test_pktsim_live_convergence () =
  (* The live control plane under a 10%-lossy control channel: start
     from hot-potato, let epoch re-optimizations publish versions, and
     require full convergence — every device on the final version, no
     stale stragglers — with zero mixed-version policy violations. *)
  let controller, workload = small_pkt_setup ~strategy:`Hp ~flows:120 () in
  let probe = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = probe.Sim.Pktsim.sim_time /. 4.0;
      reconcile_interval = probe.Sim.Pktsim.sim_time /. 16.0;
    }
  in
  let schedule = Fault.Schedule.make ~control_loss:0.10 ~loss_seed:5 [] in
  let config = { pkt_config with faults = Some schedule; live = Some live } in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "versions were published" true
    (s.Sim.Pktsim.final_config_version > 0);
  Alcotest.(check int) "reoptimizations = versions"
    s.Sim.Pktsim.final_config_version s.Sim.Pktsim.reoptimizations;
  Alcotest.(check bool) "loss actually hit the config channel" true
    (s.Sim.Pktsim.config_lost > 0);
  Alcotest.(check bool) "retries carried the pushes through" true
    (s.Sim.Pktsim.config_pushes > s.Sim.Pktsim.config_acks);
  Alcotest.(check int) "no stale devices" 0 s.Sim.Pktsim.stale_devices;
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "device %d at final version" i)
        s.Sim.Pktsim.final_config_version v)
    s.Sim.Pktsim.entity_config_version;
  Alcotest.(check int) "zero version-mixing violations" 0
    s.Sim.Pktsim.policy_violations;
  Alcotest.(check int) "conservation across update churn"
    s.Sim.Pktsim.injected_packets
    (s.Sim.Pktsim.delivered_packets + s.Sim.Pktsim.dropped_packets);
  (* Per-entity attribution arrays cover every managed device and stay
     consistent with the run-level counter. *)
  let n =
    Array.length (campus ~seed:21 ()).Sdm.Deployment.proxies
    + Array.length (campus ~seed:21 ()).Sdm.Deployment.middleboxes
  in
  Alcotest.(check int) "entity array size" n
    (Array.length s.Sim.Pktsim.entity_config_version);
  Alcotest.(check int) "per-entity losses sum to the run total"
    (s.Sim.Pktsim.config_lost + s.Sim.Pktsim.control_lost)
    (Array.fold_left ( + ) 0 s.Sim.Pktsim.entity_control_lost);
  (* Same seed, same loss draws: the live loop replays bit-identically. *)
  let again = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "deterministic replay" true
    ({ again with Sim.Pktsim.loads = [||] } = { s with Sim.Pktsim.loads = [||] }
    && again.Sim.Pktsim.loads = s.Sim.Pktsim.loads)

let test_pktsim_rejects_invalid_schedule () =
  (* The validation gate at configuration time: schedules referencing
     unknown middleboxes or links, or replaying impossible sequences,
     are rejected before the run starts. *)
  let controller, workload = small_pkt_setup ~flows:10 () in
  let expect_invalid label events =
    let config =
      { pkt_config with faults = Some (Fault.Schedule.make events) }
    in
    match Sim.Pktsim.run ~config ~controller ~workload () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  expect_invalid "unknown middlebox"
    Fault.Schedule.[ { at = 1.0; what = Mbox_crash 999 } ];
  expect_invalid "unknown link"
    Fault.Schedule.[ { at = 1.0; what = Link_fail (0, 0) } ];
  expect_invalid "recover without crash"
    Fault.Schedule.[ { at = 1.0; what = Mbox_recover 0 } ];
  expect_invalid "double crash"
    Fault.Schedule.
      [
        { at = 1.0; what = Mbox_crash 0 };
        { at = 2.0; what = Mbox_crash 0 };
      ]

let test_pktsim_empty_schedule_inert () =
  (* Arming the fault machinery with an empty schedule changes nothing:
     no events, zero loss probabilities, all boxes alive — the run is
     bit-identical to one with [faults = None]. *)
  let controller, workload = small_pkt_setup ~flows:100 () in
  let calm = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let s =
    Sim.Pktsim.run
      ~config:{ pkt_config with faults = Some Fault.Schedule.empty }
      ~controller ~workload ()
  in
  Alcotest.(check bool) "bit-identical to fault-free" true
    ({ s with Sim.Pktsim.loads = [||] } = { calm with Sim.Pktsim.loads = [||] }
    && s.Sim.Pktsim.loads = calm.Sim.Pktsim.loads)

(* ---- Replicated control plane ------------------------------------- *)

let qcheck_push_backoff =
  (* The retry ladder is monotone non-decreasing in the attempt number
     and never exceeds the configured cap. *)
  QCheck.Test.make ~count:200 ~name:"push backoff monotone and capped"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let base = 0.1 +. Stdx.Rng.float rng 10.0 in
      let cap =
        if Stdx.Rng.bool rng then infinity
        else base +. Stdx.Rng.float rng 100.0
      in
      let live =
        {
          Sim.Pktsim.default_live with
          push_backoff = base;
          push_backoff_cap = cap;
        }
      in
      let delay a = Sim.Pktsim.push_backoff_delay live ~attempt:a in
      let ok = ref (delay 0 = Float.min base cap) in
      for a = 1 to 24 do
        ok := !ok && delay a >= delay (a - 1) && delay a <= cap
      done;
      !ok)

let test_pktsim_rejects_invalid_live () =
  (* The configuration gate for the replicated control plane: non-finite
     timers, a cap below the base backoff, nonsensical replica counts,
     bad attachment routers and malformed quorum families are all
     rejected before the run starts. *)
  let controller, workload = small_pkt_setup ~flows:10 () in
  let expect_invalid label live =
    let config = { pkt_config with live = Some live } in
    match Sim.Pktsim.run ~config ~controller ~workload () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  let live = Sim.Pktsim.default_live in
  expect_invalid "NaN epoch" { live with epoch_interval = Float.nan };
  expect_invalid "infinite epoch" { live with epoch_interval = infinity };
  expect_invalid "NaN reconcile" { live with reconcile_interval = Float.nan };
  expect_invalid "NaN backoff" { live with push_backoff = Float.nan };
  expect_invalid "NaN backoff cap" { live with push_backoff_cap = Float.nan };
  expect_invalid "cap below base backoff"
    { live with push_backoff = 4.0; push_backoff_cap = 2.0 };
  expect_invalid "zero replicas" { live with replicas = 0 };
  expect_invalid "replica routers wrong length"
    { live with replicas = 3; replica_routers = Some [ 0; 1 ] };
  expect_invalid "replica router out of range"
    { live with replicas = 2; replica_routers = Some [ 0; 9999 ] };
  expect_invalid "duplicate replica routers"
    { live with replicas = 3; replica_routers = Some [ 0; 0; 1 ] };
  expect_invalid "weight vector length mismatch"
    { live with replicas = 3; quorum = Quorum.Weighted [| 1 |] };
  (* An infinite cap is legal: it simply leaves the ladder uncapped. *)
  let uncapped = { live with push_backoff_cap = infinity } in
  match
    Sim.Pktsim.run
      ~config:{ pkt_config with live = Some uncapped }
      ~controller ~workload ()
  with
  | exception Invalid_argument e -> Alcotest.failf "infinite cap rejected: %s" e
  | _ -> ()

let test_pktsim_single_replica_quiet () =
  (* replicas = 1 (the default) plays a one-acceptor quorum entirely in
     the leader's head: rounds and commits tick, but nothing touches
     the wire and no election ever happens. *)
  let controller, workload = small_pkt_setup ~strategy:`Hp ~flows:120 () in
  let probe = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = probe.Sim.Pktsim.sim_time /. 4.0;
      reconcile_interval = probe.Sim.Pktsim.sim_time /. 16.0;
    }
  in
  let config = { pkt_config with live = Some live } in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "versions were published" true
    (s.Sim.Pktsim.final_config_version > 0);
  Alcotest.(check int) "every round commits" s.Sim.Pktsim.quorum_rounds
    s.Sim.Pktsim.quorum_commits;
  Alcotest.(check int) "commits = reoptimizations" s.Sim.Pktsim.reoptimizations
    s.Sim.Pktsim.quorum_commits;
  Alcotest.(check int) "no quorum traffic" 0 s.Sim.Pktsim.quorum_msgs;
  Alcotest.(check int) "no quorum losses" 0 s.Sim.Pktsim.quorum_lost;
  Alcotest.(check int) "no elections" 0 s.Sim.Pktsim.leader_changes;
  Alcotest.(check int) "sole replica at the final version"
    s.Sim.Pktsim.final_config_version
    s.Sim.Pktsim.replica_versions.(0)

let test_pktsim_replicated_convergence () =
  (* Three replicas over a 10%-lossy control channel: every published
     version must first survive a quorum round, all replicas converge
     on the final committed version, and the online audit certifies the
     quorum invariant along the way. *)
  let controller, workload = small_pkt_setup ~strategy:`Hp ~flows:120 () in
  let probe = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = probe.Sim.Pktsim.sim_time /. 4.0;
      reconcile_interval = probe.Sim.Pktsim.sim_time /. 16.0;
      replicas = 3;
    }
  in
  let schedule = Fault.Schedule.make ~control_loss:0.10 ~loss_seed:5 [] in
  let config =
    { pkt_config with faults = Some schedule; live = Some live; audit = true }
  in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "versions were published" true
    (s.Sim.Pktsim.final_config_version > 0);
  Alcotest.(check int) "no version skipped the quorum round"
    s.Sim.Pktsim.reoptimizations s.Sim.Pktsim.quorum_commits;
  Alcotest.(check bool) "quorum traffic hit the wire" true
    (s.Sim.Pktsim.quorum_msgs > 0);
  Alcotest.(check bool) "loss hit the quorum channel" true
    (s.Sim.Pktsim.quorum_lost > 0);
  Alcotest.(check int) "three acceptors" 3
    (Array.length s.Sim.Pktsim.replica_versions);
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d at the final version" i)
        s.Sim.Pktsim.final_config_version v)
    s.Sim.Pktsim.replica_versions;
  Alcotest.(check int) "no stale devices" 0 s.Sim.Pktsim.stale_devices;
  Alcotest.(check int) "zero version-mixing violations" 0
    s.Sim.Pktsim.policy_violations;
  (match s.Sim.Pktsim.audit_report with
  | None -> Alcotest.fail "audit armed but no report"
  | Some r ->
    Alcotest.(check int) "audit clean" 0 r.Audit.Checker.violations);
  (* Same seed, same draws: the replicated loop replays bit-identically. *)
  let again = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "deterministic replay" true
    ({ again with Sim.Pktsim.loads = [||] } = { s with Sim.Pktsim.loads = [||] }
    && again.Sim.Pktsim.loads = s.Sim.Pktsim.loads)

(* ---- Silent corruption & anti-entropy sweep ----------------------- *)

let corrupt_pkt_config ?sweep_fraction () =
  let controller, workload = small_pkt_setup ~strategy:`Hp ~flows:120 () in
  let probe = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let horizon = probe.Sim.Pktsim.sim_time in
  let dep = controller.Sdm.Controller.deployment in
  let burst =
    Fault.Schedule.corruption_events ~seed:19 ~rate:0.3 ~horizon
      ~n_proxies:(Array.length dep.Sdm.Deployment.proxies)
      ~n_mboxes:(Array.length dep.Sdm.Deployment.middleboxes)
  in
  let sweep_period = Option.map (fun f -> f *. horizon) sweep_fraction in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = horizon /. 4.0;
      reconcile_interval = horizon /. 16.0;
      sweep_period;
    }
  in
  let config =
    {
      pkt_config with
      faults =
        Some (Fault.Schedule.make ~control_loss:0.02 ~loss_seed:9 burst);
      live = Some live;
      audit = true;
    }
  in
  (config, controller, workload, sweep_period)

let test_pktsim_sweep_repairs_corruption () =
  (* The anti-entropy loop end to end: a deterministic corruption burst
     against a sweeping live controller — every corruption resolved
     within the two-period bound, certified by the online audit, and
     the whole thing replays bit-identically. *)
  let config, controller, workload, sweep_period =
    corrupt_pkt_config ~sweep_fraction:0.1 ()
  in
  let period = Option.get sweep_period in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "corruption injected" true
    (s.Sim.Pktsim.corruptions_injected > 0);
  Alcotest.(check bool) "digest mismatches detected" true
    (s.Sim.Pktsim.corruptions_detected > 0);
  Alcotest.(check int) "every corruption repaired"
    s.Sim.Pktsim.corruptions_injected s.Sim.Pktsim.corruptions_repaired;
  Alcotest.(check bool) "sweep actually ran" true
    (s.Sim.Pktsim.sweep_rounds > 0 && s.Sim.Pktsim.sweep_bytes > 0);
  Alcotest.(check bool) "repair windows within the two-period bound" true
    (s.Sim.Pktsim.repair_window_max <= (2.0 *. period) +. 1e-9
    && s.Sim.Pktsim.repair_window_mean <= s.Sim.Pktsim.repair_window_max);
  (match s.Sim.Pktsim.audit_report with
  | None -> Alcotest.fail "audited run produced no report"
  | Some r ->
    Alcotest.(check int) "repair invariant clean" 0 r.Audit.Checker.violations);
  let again = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "deterministic replay" true
    ({ again with Sim.Pktsim.loads = [||] } = { s with Sim.Pktsim.loads = [||] }
    && again.Sim.Pktsim.loads = s.Sim.Pktsim.loads)

let test_pktsim_corruption_without_sweep () =
  (* Sweep disabled: nothing detects, nothing sweeps, and with the
     repair deadline infinite the audit still closes clean — corruption
     manifests as policy violations instead. *)
  let config, controller, workload, _ = corrupt_pkt_config () in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check bool) "corruption injected" true
    (s.Sim.Pktsim.corruptions_injected > 0);
  Alcotest.(check int) "no digest detections" 0
    s.Sim.Pktsim.corruptions_detected;
  Alcotest.(check int) "no sweep rounds" 0 s.Sim.Pktsim.sweep_rounds;
  Alcotest.(check int) "no sweep traffic" 0 s.Sim.Pktsim.sweep_bytes;
  Alcotest.(check bool) "festering corruption mis-steers packets" true
    (s.Sim.Pktsim.policy_violations > 0);
  match s.Sim.Pktsim.audit_report with
  | None -> Alcotest.fail "audited run produced no report"
  | Some r ->
    Alcotest.(check int) "unenforceable deadlines stay clean" 0
      r.Audit.Checker.violations

let test_experiment_corrupt_invariant () =
  (* ABL-CORRUPT is bit-identical across the fan-out axes, and its
     sweep-enabled rows repair every injected corruption. *)
  let run ~jobs ~shards =
    Sim.Experiment.ablation_corrupt ~flows:120 ~audit:true ~rates:[ 0.3 ]
      ~jobs ~shards ()
  in
  let base = run ~jobs:1 ~shards:1 in
  Alcotest.(check bool) "corrupt jobs=1 = jobs=4" true
    (base = run ~jobs:4 ~shards:1);
  Alcotest.(check bool) "corrupt shards=1 = shards=4" true
    (base = run ~jobs:1 ~shards:4);
  List.iter
    (fun (r : Sim.Experiment.corrupt_row) ->
      let s = r.Sim.Experiment.stats in
      Alcotest.(check (option int))
        (Printf.sprintf "%s rate=%.1f audits clean" r.Sim.Experiment.cr_strategy
           r.Sim.Experiment.cr_rate)
        (Some 0) (Sim.Experiment.audit_violations s);
      match r.Sim.Experiment.cr_sweep with
      | None ->
        Alcotest.(check int) "sweep-off row never detects" 0
          s.Sim.Pktsim.corruptions_detected
      | Some _ ->
        Alcotest.(check int)
          (Printf.sprintf "%s sweep row repairs everything"
             r.Sim.Experiment.cr_strategy)
          s.Sim.Pktsim.corruptions_injected s.Sim.Pktsim.corruptions_repaired)
    base.Sim.Experiment.c_rows

let test_experiment_quorum_invariant () =
  (* ABL-QUORUM is bit-identical across the fan-out axes, like every
     other experiment. *)
  let run ~jobs ~shards =
    Sim.Experiment.ablation_quorum ~flows:120 ~jobs ~shards ()
  in
  let base = run ~jobs:1 ~shards:1 in
  Alcotest.(check bool) "quorum jobs=1 = jobs=4" true
    (base = run ~jobs:4 ~shards:1);
  Alcotest.(check bool) "quorum shards=1 = shards=2" true
    (base = run ~jobs:1 ~shards:2)

(* ---- Parallel fan-out determinism --------------------------------- *)

let test_experiment_jobs_invariant_flowsim () =
  (* Headline guarantee of the domain-pool engine: a flow-level sweep
     is bit-identical however many domains evaluate its cells. *)
  let run jobs =
    Sim.Experiment.run_figure Sim.Experiment.Campus
      ~flow_counts:[ 1_000; 2_000; 3_000 ] ~jobs ()
  in
  Alcotest.(check bool) "figure jobs=1 = jobs=4" true (run 1 = run 4)

let test_experiment_jobs_invariant_pktsim () =
  (* Same guarantee for the packet-level chaos experiment, with the
     online invariant audit armed in every row. *)
  let run jobs =
    Sim.Experiment.ablation_chaos ~flows:120 ~audit:true
      ~detection_delays:[ 2.0; 10.0 ] ~jobs ()
  in
  Alcotest.(check bool) "chaos jobs=1 = jobs=4" true (run 1 = run 4)

let test_flowsim_shards_invariant () =
  (* Headline guarantee of intra-run sharding: one run's result is
     bit-identical however many shards its flows are split across.
     Every accumulated float is an exact integer far below 2^53, so
     the fixed-shard-order merge reassociates the sums losslessly. *)
  let dep = campus () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:13 ~flows:4_000 () in
  let traffic = Sim.Workload.measure workload in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok controller ->
    let base = Sim.Flowsim.run ~controller ~workload () in
    List.iter
      (fun shards ->
        let sharded = Sim.Flowsim.run ~shards ~controller ~workload () in
        Alcotest.(check bool)
          (Printf.sprintf "shards=%d = unsharded" shards)
          true (sharded = base))
      [ 1; 2; 3; 8 ]

let test_workload_packed_roundtrip () =
  (* The packed Bigarray store is a lossless encoding of the
     generator's output: same rules, same totals, and every decoded
     flow_spec equals its heap counterpart. *)
  let dep = campus () in
  let heap = Sim.Workload.generate ~deployment:dep ~seed:13 ~flows:2_000 () in
  let packed =
    Sim.Workload.generate_packed ~deployment:dep ~seed:13 ~flows:2_000 ()
  in
  Alcotest.(check bool) "same rules" true
    (packed.Sim.Workload.Packed.rules = heap.Sim.Workload.rules);
  Alcotest.(check int) "same total packets" heap.Sim.Workload.total_packets
    packed.Sim.Workload.Packed.total_packets;
  Alcotest.(check int) "same flow count"
    (Array.length heap.Sim.Workload.flows)
    packed.Sim.Workload.Packed.n_flows;
  Array.iteri
    (fun i fs ->
      if Sim.Workload.Packed.get packed i <> fs then
        Alcotest.fail (Printf.sprintf "flow %d decodes differently" i))
    heap.Sim.Workload.flows

let test_flowsim_packed_matches_heap () =
  (* run_packed over the Bigarray store = run over the heap workload,
     sharded or not. *)
  let dep = campus () in
  let heap = Sim.Workload.generate ~deployment:dep ~seed:13 ~flows:3_000 () in
  let packed =
    Sim.Workload.generate_packed ~deployment:dep ~seed:13 ~flows:3_000 ()
  in
  let traffic = Sim.Workload.measure heap in
  match
    Sdm.Controller.configure dep ~rules:heap.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok controller ->
    let base = Sim.Flowsim.run ~controller ~workload:heap () in
    let p1 = Sim.Flowsim.run_packed ~controller ~workload:packed () in
    let p4 = Sim.Flowsim.run_packed ~shards:4 ~controller ~workload:packed () in
    Alcotest.(check bool) "packed = heap" true (p1 = base);
    Alcotest.(check bool) "packed shards=4 = heap" true (p4 = base)

let test_experiment_shards_invariant_flowsim () =
  (* The jobs-invariance oracle, on the sharding axis: a flow-level
     sweep is bit-identical however many shards split each cell. *)
  let run shards =
    Sim.Experiment.run_figure Sim.Experiment.Campus
      ~flow_counts:[ 1_000; 2_000; 3_000 ] ~jobs:1 ~shards ()
  in
  Alcotest.(check bool) "figure shards=1 = shards=4" true (run 1 = run 4)

let test_experiment_shards_invariant_pktsim () =
  (* Same on the packet level, with the online invariant audit armed:
     sharded setup phases never perturb the event loop. *)
  let run shards =
    Sim.Experiment.ablation_chaos ~flows:120 ~audit:true
      ~detection_delays:[ 2.0; 10.0 ] ~jobs:1 ~shards ()
  in
  Alcotest.(check bool) "chaos shards=1 = shards=4" true (run 1 = run 4)

let suite =
  [
    Alcotest.test_case "workload shape" `Quick test_workload_shape;
    Alcotest.test_case "workload calibration" `Quick test_workload_calibration;
    Alcotest.test_case "workload sizes bounded" `Quick test_workload_sizes_bounded;
    Alcotest.test_case "workload rule ids honest" `Quick
      test_workload_flows_match_their_rule;
    Alcotest.test_case "workload endpoints consistent" `Quick
      test_workload_endpoints_consistent;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "measurement totals" `Quick test_measure_totals;
    Alcotest.test_case "flowsim load conservation" `Quick
      test_flowsim_load_conservation;
    Alcotest.test_case "flowsim HP uses closest" `Quick
      test_flowsim_hot_potato_uses_closest;
    Alcotest.test_case "flowsim LB beats baselines" `Quick test_flowsim_lb_beats_others;
    Alcotest.test_case "flowsim LB close to lambda" `Quick
      test_flowsim_lb_close_to_lambda;
    Alcotest.test_case "flowsim stretch sane" `Quick test_flowsim_stretch;
    Alcotest.test_case "pktsim delivers everything" `Quick
      test_pktsim_delivers_everything;
    Alcotest.test_case "pktsim classifier knob is stats-invariant" `Quick
      test_pktsim_classifier_invariant;
    Alcotest.test_case "pktsim loads = flowsim loads" `Slow
      test_pktsim_loads_equal_flowsim;
    Alcotest.test_case "pktsim = flowsim on Waxman" `Slow
      test_pktsim_flowsim_agree_on_waxman;
    Alcotest.test_case "pktsim label switching engages" `Quick
      test_pktsim_label_switching_kicks_in;
    Alcotest.test_case "pktsim label switching avoids fragments" `Quick
      test_pktsim_label_switching_avoids_fragments;
    Alcotest.test_case "pktsim cache suppresses lookups" `Quick
      test_pktsim_cache_suppresses_lookups;
    Alcotest.test_case "pktsim routing-substrate invariance" `Slow
      test_pktsim_routing_substrate_invariance;
    Alcotest.test_case "pktsim latency overhead" `Quick test_pktsim_latency_overhead;
    Alcotest.test_case "pktsim label expiry recovery" `Quick
      test_pktsim_label_expiry_recovery;
    Alcotest.test_case "pktsim WP cache short-circuit" `Quick
      test_pktsim_wp_cache_short_circuit;
    Alcotest.test_case "pktsim ECMP invariance" `Quick test_pktsim_ecmp_invariance;
    Alcotest.test_case "pktsim same-seed determinism" `Quick
      test_pktsim_same_seed_deterministic;
    Alcotest.test_case "pktsim pinned equivalence oracle" `Slow
      test_pktsim_pinned_equivalence;
    Alcotest.test_case "pktsim event-count regression" `Quick
      test_pktsim_event_count_regression;
    Alcotest.test_case "pktsim teardown exact counters" `Quick
      test_pktsim_teardown_exact_counters;
    Alcotest.test_case "pktsim crash failover relabels" `Quick
      test_pktsim_crash_failover_relabels;
    Alcotest.test_case "pktsim link flap load invariance" `Quick
      test_pktsim_link_flap_load_invariance;
    Alcotest.test_case "pktsim control-loss retries" `Quick
      test_pktsim_control_loss_retries;
    Alcotest.test_case "pktsim link loss accounted" `Quick
      test_pktsim_link_loss_accounted;
    Alcotest.test_case "pktsim empty fault schedule inert" `Quick
      test_pktsim_empty_schedule_inert;
    Alcotest.test_case "pktsim rejects invalid schedules" `Quick
      test_pktsim_rejects_invalid_schedule;
    Alcotest.test_case "pktsim live convergence under loss" `Quick
      test_pktsim_live_convergence;
    QCheck_alcotest.to_alcotest qcheck_push_backoff;
    Alcotest.test_case "pktsim rejects invalid live configs" `Quick
      test_pktsim_rejects_invalid_live;
    Alcotest.test_case "pktsim single replica stays quiet" `Quick
      test_pktsim_single_replica_quiet;
    Alcotest.test_case "pktsim replicated convergence under loss" `Quick
      test_pktsim_replicated_convergence;
    Alcotest.test_case "experiment quorum jobs/shards invariance" `Slow
      test_experiment_quorum_invariant;
    Alcotest.test_case "pktsim sweep repairs corruption" `Quick
      test_pktsim_sweep_repairs_corruption;
    Alcotest.test_case "pktsim corruption without sweep" `Quick
      test_pktsim_corruption_without_sweep;
    Alcotest.test_case "experiment corrupt jobs/shards invariance" `Slow
      test_experiment_corrupt_invariant;
    QCheck_alcotest.to_alcotest qcheck_pktsim_chaos;
    QCheck_alcotest.to_alcotest qcheck_pktsim_random_fault_schedules;
    Alcotest.test_case "experiment figure (small)" `Slow test_experiment_figure_small;
    Alcotest.test_case "experiment linear growth" `Slow test_experiment_linear_growth;
    Alcotest.test_case "experiment table3 shape" `Slow test_experiment_table3_shape;
    Alcotest.test_case "experiment jobs-invariant (flowsim)" `Slow
      test_experiment_jobs_invariant_flowsim;
    Alcotest.test_case "experiment jobs-invariant (pktsim)" `Slow
      test_experiment_jobs_invariant_pktsim;
    Alcotest.test_case "flowsim shards invariance" `Quick
      test_flowsim_shards_invariant;
    Alcotest.test_case "workload packed roundtrip" `Quick
      test_workload_packed_roundtrip;
    Alcotest.test_case "flowsim packed = heap" `Quick
      test_flowsim_packed_matches_heap;
    Alcotest.test_case "experiment shards invariance (flowsim)" `Slow
      test_experiment_shards_invariant_flowsim;
    Alcotest.test_case "experiment shards invariance (pktsim)" `Slow
      test_experiment_shards_invariant_pktsim;
    Alcotest.test_case "experiment k=1 equals HP" `Quick test_experiment_k1_equals_hp;
    Alcotest.test_case "epoch adaptation" `Slow test_epoch_adaptation;
    Alcotest.test_case "queue ablation" `Slow test_queue_ablation;
    Alcotest.test_case "control-plane pricing" `Quick test_controlplane_pricing;
    Alcotest.test_case "control-plane device indexing" `Quick
      test_controlplane_device_indexing;
    Alcotest.test_case "control-plane entity bytes" `Quick
      test_controlplane_entity_bytes;
    Alcotest.test_case "flowsim trace" `Quick test_flowsim_trace;
    Alcotest.test_case "queueing preserves loads" `Quick test_queueing_preserves_loads;
  ]
