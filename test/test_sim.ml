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

(* The workload and the (strategy, plan, result) rows of HP, Rand and
   LB on it. *)
let run_campus_strategies flows =
  let s = Sim.Flowlevel.scenario (campus ()) ~seed:17 ~flows in
  (s.workload, Sim.Flowlevel.sweep [ (s, Sim.Flowlevel.strategies) ])

let strategy name rows = List.find (fun (k, _, _) -> k = name) rows

let test_flowsim_load_conservation () =
  (* Total middlebox load = sum over enforced flows of
     packets * chain length, for every strategy. *)
  let workload, runs = run_campus_strategies 5_000 in
  let rule_of = Sim.Workload.rule_of workload in
  let expected =
    Array.fold_left
      (fun acc (f : Sim.Workload.flow_spec) ->
        match rule_of f with
        | Some r when not (Policy.Action.is_permit r.Policy.Rule.actions) ->
          acc
          + (f.Sim.Workload.packets * List.length r.Policy.Rule.actions)
        | _ -> acc)
      0 workload.Sim.Workload.flows
  in
  List.iter
    (fun (name, _, (r : Sim.Flowsim.result)) ->
      let total = Array.fold_left ( +. ) 0.0 r.loads in
      Alcotest.(check (float 0.5)) (name ^ " load conservation") (float_of_int expected) total)
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
    let _, plan, result = strategy name runs in
    List.fold_left
      (fun acc nf -> max acc (Sim.Flowsim.max_load_of_nf plan result nf))
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
  let _, (plan : Sdm.Controller.t), (lb : Sim.Flowsim.result) = strategy "LB" runs in
  match plan.lp with
  | None -> Alcotest.fail "LB must carry lambda"
  | Some { lambda; _ } ->
    let realized = Array.fold_left max 0.0 lb.loads in
    if realized > lambda *. 1.15 +. 1000.0 then
      Alcotest.failf "realized %f far above lambda %f" realized lambda

let test_flowsim_stretch () =
  let _, runs = run_campus_strategies 3_000 in
  List.iter
    (fun (_, _, result) ->
      let s = Sim.Flowsim.stretch result in
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

(* Minor words per injected packet of a whole campus LB run (300
   power-law flows, default config), measured on a second run after a
   warm-up one.  The run's own set-up (routing tables, matchers, sized
   caches) is included, so this pins the packet path and the per-run
   overhead together.  Measured 119.1 words per packet; the ceiling is
   that plus 15%. *)
let test_pktsim_allocation_ceiling () =
  let controller, workload = small_pkt_setup () in
  let run () = Sim.Pktsim.run ~controller ~workload () in
  ignore (run ());
  let before = Gc.minor_words () in
  let stats = run () in
  let per_packet =
    (Gc.minor_words () -. before)
    /. float_of_int stats.Sim.Pktsim.injected_packets
  in
  Alcotest.(check bool) "packets injected" true
    (stats.Sim.Pktsim.injected_packets > 1000);
  if per_packet > 137.0 then
    Alcotest.failf "Pktsim.run allocates %.1f minor words per packet" per_packet

(* The compiled matcher on the campus tables: every flow of a 10,000-
   flow workload classified at its source proxy's table, after a
   warm-up pass.  A match returns an option stored at build time and a
   miss the constant [None], so the ceiling is effectively zero. *)
let test_matcher_allocation_ceiling () =
  let controller, workload = small_pkt_setup ~flows:10_000 () in
  let flows = workload.Sim.Workload.flows in
  let tables =
    Array.init
      (Array.length controller.Sdm.Controller.deployment.Sdm.Deployment.proxies)
      (fun p ->
        Policy.Matcher.build
          (Sdm.Controller.policy_table_for controller (Mbox.Entity.Proxy p)))
  in
  let classify () =
    let hits = ref 0 in
    Array.iter
      (fun (fs : Sim.Workload.flow_spec) ->
        match Policy.Matcher.first_match tables.(fs.src_proxy) fs.flow with
        | Some _ -> incr hits
        | None -> ())
      flows;
    !hits
  in
  ignore (classify ());
  let before = Gc.minor_words () in
  let hits = classify () in
  let per_call =
    (Gc.minor_words () -. before) /. float_of_int (Array.length flows)
  in
  Alcotest.(check bool) "most flows matched" true (hits > Array.length flows / 2);
  if per_call >= 0.01 then
    Alcotest.failf "Matcher.first_match allocates %.4f minor words/call" per_call

let test_pktsim_rejects_bad_config () =
  (* Every out-of-range value is refused before the run starts, with
     a message naming the field. *)
  let controller, workload = small_pkt_setup ~flows:20 () in
  let c = pkt_config in
  List.iter
    (fun (label, config, message) ->
      Alcotest.check_raises label (Invalid_argument ("Pktsim.run: " ^ message))
        (fun () -> ignore (Sim.Pktsim.run ~config ~controller ~workload ())))
    [
      ("negative packet_interval", { c with packet_interval = -1.0 },
       "packet_interval must be finite and >= 0");
      ("infinite packet_interval", { c with packet_interval = infinity },
       "packet_interval must be finite and >= 0");
      ("negative start_window", { c with start_window = -5.0 },
       "start_window must be finite and >= 0");
      ("zero service_rate", { c with service_rate = 0.0 },
       "service_rate must be > 0");
      ("NaN service_rate", { c with service_rate = nan },
       "service_rate must be > 0");
      ("wp_cache_hit_ratio above 1", { c with wp_cache_hit_ratio = 1.5 },
       "wp_cache_hit_ratio must be in [0, 1]");
      ("negative wp_cache_hit_ratio", { c with wp_cache_hit_ratio = -0.1 },
       "wp_cache_hit_ratio must be in [0, 1]");
      ("NaN wp_cache_hit_ratio", { c with wp_cache_hit_ratio = nan },
       "wp_cache_hit_ratio must be in [0, 1]");
      ("zero cache_capacity", { c with cache_capacity = Some 0 },
       "cache_capacity must be >= 1");
      ("NaN detection_delay", { c with detection_delay = nan },
       "detection_delay must be finite and >= 0");
      ("negative detection_delay", { c with detection_delay = -1.0 },
       "detection_delay must be finite and >= 0");
      ("zero debug_bypass_chain", { c with debug_bypass_chain = Some 0 },
       "debug_bypass_chain must be >= 1");
    ];
  (* The boundaries themselves are valid. *)
  let edge =
    { c with wp_cache_hit_ratio = 1.0; start_window = 0.0; cache_capacity = Some 1 }
  in
  let stats = Sim.Pktsim.run ~config:edge ~controller ~workload () in
  Alcotest.(check int) "boundary config runs" workload.Sim.Workload.total_packets
    stats.Sim.Pktsim.injected_packets

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
     seed scenarios with label switching toggled, pinned to the per-hop
     cascade's exact output. *)
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
        (fun label_switching ->
          let stats =
            Sim.Pktsim.run
              ~config:{ pkt_config with label_switching }
              ~controller ~workload ()
          in
          let expect = if label_switching then expect_ls else expect_tun in
          check_pinned
            (Printf.sprintf "%s ls=%b" name label_switching)
            expect stats)
        [ true; false ]
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
      let service_rate =
        if Stdx.Rng.bool rng then infinity else 2.0 +. Stdx.Rng.float rng 20.0
      in
      let cache_capacity =
        if Stdx.Rng.bool rng then None else Some (8 + Stdx.Rng.int rng 64)
      in
      let config =
        {
          Sim.Pktsim.default_config with
          label_switching;
          service_rate;
          cache_capacity;
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

(* The rows of the campus figure at [flow_counts]. *)
let figure_rows flow_counts =
  let fig =
    Sim.Flowlevel.figure Sim.Experiment.Campus ~flow_counts ~seed:17 ~jobs:2 ~file:"fig4.csv" ()
  in
  Sim.Flowlevel.sweep fig.sweeps

let nfs = List.map fst Sim.Experiment.mbox_counts

let test_experiment_figure_small () =
  let rows = figure_rows [ 3_000; 6_000 ] in
  Alcotest.(check (list (pair int string))) "two points, three strategies each"
    [ (3_000, "HP"); (3_000, "Rand"); (3_000, "LB"); (6_000, "HP"); (6_000, "Rand"); (6_000, "LB") ]
    (List.map (fun (((flows, _), name), _, _) -> (flows, name)) rows);
  List.iter
    (fun (_, plan, result) ->
      List.iter
        (fun nf ->
          Alcotest.(check bool) "loads positive" true
            (Sim.Flowsim.max_load_of_nf plan result nf > 0.0))
        nfs)
    rows

let test_experiment_linear_growth () =
  (* Max loads grow roughly linearly with volume (paper: "the maximum
     loads increase linearly with traffic volume"). *)
  let lb flows rows nf =
    let _, plan, result = List.find (fun (((f, _), name), _, _) -> f = flows && name = "LB") rows in
    Sim.Flowsim.max_load_of_nf plan result nf
  in
  let rows = figure_rows [ 10_000; 40_000 ] in
  List.iter
    (fun nf ->
      let ratio = lb 40_000 rows nf /. lb 10_000 rows nf in
      if ratio < 2.0 || ratio > 8.0 then
        Alcotest.failf "%s: 4x flows gave %.2fx load" (Policy.Action.nf_to_string nf) ratio)
    [ Policy.Action.FW; Policy.Action.IDS ]

let test_experiment_table3_shape () =
  let t3 = Sim.Flowlevel.table3 Sim.Experiment.Campus ~flows:30_000 ~seed:17 () in
  let rows = Sim.Flowlevel.sweep t3.sweeps in
  Alcotest.(check (list string)) "three strategies" [ "HP"; "Rand"; "LB" ]
    (List.map (fun (name, _, _) -> name) rows);
  Alcotest.(check bool) "events counted" true
    (List.for_all (fun (_, _, (r : Sim.Flowsim.result)) -> r.events > 0) rows);
  List.iter
    (fun nf ->
      let summary name =
        let _, plan, result = strategy name rows in
        Stdx.Stats.summarize (Sim.Flowsim.loads_of_nf plan result nf)
      in
      let hp = summary "HP" and lb = summary "LB" in
      (* LB spread is the tightest of the three strategies. *)
      Alcotest.(check bool) "lb spread < hp spread" true (lb.max -. lb.min <= hp.max -. hp.min);
      Alcotest.(check bool) "max >= min" true (lb.max >= lb.min))
    nfs

let test_queue_ablation () =
  let q = Sim.Ablation.queue ~flows:200 ~seed:17 in
  let probe = List.hd (Sim.Ablation.probes q) in
  let rows = Sim.Ablation.sweep q in
  let hp = List.assoc "HP" rows and lb = List.assoc "LB" rows in
  Alcotest.(check bool) "finite rate" true (Sim.Ablation.service_rate probe > 0.0);
  (* Calibration targets ~50% utilisation for LB; HP concentrates and
     must run hotter and slower.  Both utilisations share one
     denominator, so the busiest loads compare them. *)
  Alcotest.(check bool) "HP hotter than LB" true
    (Sim.Ablation.max_load hp > Sim.Ablation.max_load lb);
  Alcotest.(check bool) "HP slower (mean)" true
    (hp.Sim.Pktsim.latency_mean > lb.Sim.Pktsim.latency_mean);
  Alcotest.(check bool) "HP slower (p99)" true
    (hp.Sim.Pktsim.latency_p99 > lb.Sim.Pktsim.latency_p99)

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
  (* The first four epochs of ABL-EPOCH. *)
  let e =
    Sim.Flowlevel.filter
      (fun ((epoch, _, _), _) -> epoch < 4)
      (Sim.Flowlevel.epoch ~flows:10_000 ~seed:17 ~jobs:2)
  in
  let rows = Sim.Flowlevel.sweep e.sweeps in
  Alcotest.(check int) "four epochs of three rows" 12 (List.length rows);
  Alcotest.(check bool) "events counted" true
    (List.for_all (fun (_, _, (r : Sim.Flowsim.result)) -> r.events > 0) rows);
  List.iter
    (fun epoch ->
      let max_load name =
        let _, _, (r : Sim.Flowsim.result) =
          List.find (fun (((e, _, _), k), _, _) -> e = epoch && k = name) rows
        in
        Array.fold_left max 0.0 r.loads
      in
      let stale = max_load "stale" and clairvoyant = max_load "clairvoyant" in
      let hp = max_load "HP" in
      (* Clairvoyant planning can only help. *)
      Alcotest.(check bool) "clairvoyant <= stale" true (clairvoyant <= stale +. 1.0);
      Alcotest.(check bool) "clairvoyant <= HP" true (clairvoyant <= hp +. 1.0);
      Alcotest.(check bool) "gap >= 1" true (stale /. clairvoyant >= 0.99);
      if epoch = 0 then
        (* No prior measurement: stale LB *is* hot-potato. *)
        Alcotest.(check (float 1e-6)) "epoch 0 falls back to HP" hp stale
      else
        (* After the first measurement arrives, stale LB beats hot-potato. *)
        Alcotest.(check bool) "stale LB < HP after warm-up" true (stale < hp))
    [ 0; 1; 2; 3 ]

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

(* A live control plane over a single proxy and a network the test
   plays: every message routes over [hops], every leg draws
   [control_lost], and the time of each draw is logged.  Publishing one
   version pushes to the one device; the run returns once the engine
   drains. *)
let fake_network_push ~hops ~control_lost =
  let dep = campus () in
  let one =
    Sdm.Deployment.make ~topo:dep.Sdm.Deployment.topo ~middleboxes:[||]
      ~proxies:[| dep.Sdm.Deployment.proxies.(0) |]
  in
  let controller =
    match Sdm.Controller.configure one ~rules:[] Sdm.Controller.Hot_potato with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let engine = Dess.Engine.create () in
  let draws = ref [] in
  let net =
    {
      Sim.Controlplane.hops = (fun ~from:_ ~target:_ -> hops);
      control_lost =
        (fun () ->
          draws := Dess.Engine.now engine :: !draws;
          control_lost);
      device_up = (fun _ -> true);
      install = (fun ~dev:_ ~version:_ -> ());
      sweep_check = (fun ~dev:_ -> ());
      believed_failed = (fun () -> []);
      corruption_outstanding = (fun () -> false);
    }
  in
  let stats = Sim.Pktsim.zero_stats ~n_mboxes:0 ~n_devices:1 in
  let cp =
    Sim.Controlplane.create Sim.Pktsim.default_live ~controller ~engine ~stats
      ~audit:None ~link_delay:0.1 net
  in
  Sim.Controlplane.publish cp controller;
  Dess.Engine.run engine;
  (stats, cp, List.rev !draws, Dess.Engine.now engine)

let test_controlplane_ladder_on_loss () =
  (* Every transmission lost: the push climbs the whole ladder — the
     first send plus 6 retries after 2, 4, ..., 64 — and stops. *)
  let s, cp, draws, last = fake_network_push ~hops:(Some 3) ~control_lost:true in
  Alcotest.(check (list (float 0.0))) "pushes at t = 0, 2, 6, ..., 126"
    [ 0.0; 2.0; 6.0; 14.0; 30.0; 62.0; 126.0 ] draws;
  Alcotest.(check int) "config_pushes" 7 s.Sim.Pktsim.config_pushes;
  Alcotest.(check int) "config_lost" 7 s.Sim.Pktsim.config_lost;
  Alcotest.(check int) "device retries" 6 s.Sim.Pktsim.entity_control_retries.(0);
  Alcotest.(check int) "device losses" 7 s.Sim.Pktsim.entity_control_lost.(0);
  Alcotest.(check int) "no acks" 0 s.Sim.Pktsim.config_acks;
  Alcotest.(check int) "never installed" 0
    cp.Sim.Controlplane.device_version.(0);
  Alcotest.(check (float 0.0)) "nothing after the last push" 126.0 last;
  (* The same push over a clean channel: one send, one ack leg, one
     install, acked a round trip of 4 hops later. *)
  let s, cp, draws, last = fake_network_push ~hops:(Some 3) ~control_lost:false in
  Alcotest.(check (list (float 0.0))) "send and ack drawn at once" [ 0.0; 0.0 ]
    draws;
  Alcotest.(check int) "one push" 1 s.Sim.Pktsim.config_pushes;
  Alcotest.(check int) "one ack" 1 s.Sim.Pktsim.config_acks;
  Alcotest.(check int) "installed" 1 cp.Sim.Controlplane.device_version.(0);
  Alcotest.(check (float 1e-12)) "acked after a round trip" 0.8 last

let test_controlplane_ladder_on_partition () =
  (* No route to the device: nothing is sent, nothing is drawn, and the
     device keeps its last-known-good configuration. *)
  let s, cp, draws, _ = fake_network_push ~hops:None ~control_lost:false in
  Alcotest.(check int) "no pushes" 0 s.Sim.Pktsim.config_pushes;
  Alcotest.(check (list (float 0.0))) "no draws" [] draws;
  Alcotest.(check int) "config_degraded" 1 s.Sim.Pktsim.config_degraded;
  Alcotest.(check int) "still at version 0" 0
    cp.Sim.Controlplane.device_version.(0)

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

let test_pktsim_rejects_invalid_live () =
  (* The configuration gate for the replicated control plane: non-finite
     timers and nonsensical replica counts are rejected before the run
     starts. *)
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
  expect_invalid "zero replicas" { live with replicas = 0 }

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

let test_pktsim_sweep_stops_without_leader () =
  (* Regression: with the only replica crashed no sweep round runs, so
     nothing repairs the dropped label entries — and the sweep loop,
     which re-arms while a corruption is outstanding, once re-armed
     forever because its cap counted only the rounds a leader ran.  It
     now stops after 10,000 ticks of its period. *)
  let controller, workload = small_pkt_setup ~strategy:`Hp ~flows:120 () in
  let n_mboxes =
    Array.length controller.Sdm.Controller.deployment.Sdm.Deployment.middleboxes
  in
  let events =
    { Fault.Schedule.at = 5.0; what = Fault.Schedule.Ctrl_crash 0 }
    :: List.init n_mboxes (fun i ->
           { Fault.Schedule.at = 30.0; what = Fault.Schedule.Label_drop i })
  in
  let config =
    {
      pkt_config with
      faults = Some (Fault.Schedule.make events);
      live = Some { Sim.Pktsim.default_live with sweep_period = Some 5.0 };
    }
  in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  Alcotest.(check int) "no round without a leader" 0 s.Sim.Pktsim.sweep_rounds;
  Alcotest.(check bool) "a corruption stays unrepaired" true
    (s.Sim.Pktsim.corruptions_repaired < s.Sim.Pktsim.corruptions_injected);
  Alcotest.(check (float 0.0)) "the loop stopped at its tick cap" 50_000.0
    s.Sim.Pktsim.sim_time

let test_experiment_corrupt_invariant () =
  (* ABL-CORRUPT is bit-identical across --jobs, and its
     sweep-enabled rows repair every injected corruption. *)
  let corrupt =
    Sim.Ablation.corrupt ~flows:120 ~seed:17 ~audit:true ~rate:(Some 0.3) ~sweep_period:None
  in
  let base = Sim.Ablation.sweep ~jobs:1 corrupt in
  Alcotest.(check bool) "corrupt jobs=1 = jobs=4" true
    (base = Sim.Ablation.sweep ~jobs:4 corrupt);
  List.iter
    (fun ((plan, rate, period), (s : Sim.Pktsim.stats)) ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s rate=%.1f audits clean" plan rate)
        (Some 0) (Sim.Ablation.audit_violations s);
      match period with
      | None ->
        Alcotest.(check int) "sweep-off row never detects" 0
          s.Sim.Pktsim.corruptions_detected
      | Some _ ->
        Alcotest.(check int)
          (Printf.sprintf "%s sweep row repairs everything" plan)
          s.Sim.Pktsim.corruptions_injected s.Sim.Pktsim.corruptions_repaired)
    base

let test_experiment_quorum_invariant () =
  (* ABL-QUORUM is bit-identical across --jobs, like every
     other experiment. *)
  let quorum = Sim.Ablation.quorum ~flows:120 ~seed:17 ~audit:false in
  Alcotest.(check bool) "quorum jobs=1 = jobs=4" true
    (Sim.Ablation.sweep ~jobs:1 quorum = Sim.Ablation.sweep ~jobs:4 quorum)

(* ---- Parallel fan-out determinism --------------------------------- *)

let test_experiment_jobs_invariant_flowsim () =
  (* Headline guarantee of the domain-pool engine: every flow-level
     entry, run through the registry at its golden ctx, gives the same
     text, CSVs, events and rows (their golden tokens) however many
     domains evaluate its cells. *)
  let flow_level =
    [ "fig4"; "fig5"; "table3"; "table3-waxman"; "k"; "fail"; "epoch"; "sketch"; "lp"; "config" ]
  in
  List.iter
    (fun (c : Golden.case) ->
      if List.mem c.name flow_level then
        Alcotest.(check string) (c.name ^ " jobs=1 = jobs=4") (Golden.line ~jobs:1 c)
          (Golden.line ~jobs:4 c))
    Golden.cases

let test_experiment_jobs_invariant_pktsim () =
  (* Same guarantee for the packet-level chaos experiment, with the
     online invariant audit armed in every row. *)
  let chaos =
    Sim.Ablation.filter
      (fun (_, delay) -> delay <> 40.0)
      (Sim.Ablation.chaos ~flows:120 ~seed:17 ~audit:true)
  in
  Alcotest.(check bool) "chaos jobs=1 = jobs=4" true
    (Sim.Ablation.sweep ~jobs:1 chaos = Sim.Ablation.sweep ~jobs:4 chaos)

let test_experiment_live_invariant () =
  (* ABL-LIVE drives the config-push ladder hardest: its rows are
     bit-identical across --jobs. *)
  let run jobs = Sim.Ablation.sweep ~jobs (Sim.Ablation.live ~flows:120 ~seed:17 ~audit:true ~jobs) in
  Alcotest.(check bool) "live jobs=1 = jobs=4" true (run 1 = run 4)

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
    Alcotest.test_case "pktsim allocation ceiling" `Quick
      test_pktsim_allocation_ceiling;
    Alcotest.test_case "matcher allocation ceiling" `Quick
      test_matcher_allocation_ceiling;
    Alcotest.test_case "pktsim rejects bad config values" `Quick
      test_pktsim_rejects_bad_config;
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
    Alcotest.test_case "pktsim latency overhead" `Quick test_pktsim_latency_overhead;
    Alcotest.test_case "pktsim WP cache short-circuit" `Quick
      test_pktsim_wp_cache_short_circuit;
    Alcotest.test_case "pktsim same-seed determinism" `Quick
      test_pktsim_same_seed_deterministic;
    Alcotest.test_case "pktsim pinned equivalence oracle" `Slow
      test_pktsim_pinned_equivalence;
    Alcotest.test_case "pktsim event-count regression" `Quick
      test_pktsim_event_count_regression;
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
    Alcotest.test_case "pktsim rejects invalid live configs" `Quick
      test_pktsim_rejects_invalid_live;
    Alcotest.test_case "pktsim single replica stays quiet" `Quick
      test_pktsim_single_replica_quiet;
    Alcotest.test_case "pktsim replicated convergence under loss" `Quick
      test_pktsim_replicated_convergence;
    Alcotest.test_case "experiment quorum jobs invariance" `Slow
      test_experiment_quorum_invariant;
    Alcotest.test_case "pktsim sweep repairs corruption" `Quick
      test_pktsim_sweep_repairs_corruption;
    Alcotest.test_case "pktsim corruption without sweep" `Quick
      test_pktsim_corruption_without_sweep;
    Alcotest.test_case "pktsim sweep stops without a leader" `Quick
      test_pktsim_sweep_stops_without_leader;
    Alcotest.test_case "experiment corrupt jobs invariance" `Slow
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
    Alcotest.test_case "experiment live jobs invariance" `Slow
      test_experiment_live_invariant;
    Alcotest.test_case "experiment k=1 equals HP" `Quick test_experiment_k1_equals_hp;
    Alcotest.test_case "epoch adaptation" `Slow test_epoch_adaptation;
    Alcotest.test_case "queue ablation" `Slow test_queue_ablation;
    Alcotest.test_case "control-plane pricing" `Quick test_controlplane_pricing;
    Alcotest.test_case "control-plane device indexing" `Quick
      test_controlplane_device_indexing;
    Alcotest.test_case "control-plane entity bytes" `Quick
      test_controlplane_entity_bytes;
    Alcotest.test_case "control-plane ladder on loss" `Quick
      test_controlplane_ladder_on_loss;
    Alcotest.test_case "control-plane ladder on partition" `Quick
      test_controlplane_ladder_on_partition;
    Alcotest.test_case "flowsim trace" `Quick test_flowsim_trace;
    Alcotest.test_case "queueing preserves loads" `Quick test_queueing_preserves_loads;
  ]
