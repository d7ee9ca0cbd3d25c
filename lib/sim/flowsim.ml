type result = {
  loads : float array;
  packet_hops : float;
  direct_packet_hops : float;
  enforced_flows : int;
  enforced_packets : int;
  policy_violations : int;
  violating_flows : int;
  events : int;
}

(* Mutable twin of [result]: the per-flow walk adds into it in place. *)
type acc = {
  a_loads : float array;
  mutable a_packet_hops : float;
  mutable a_direct_packet_hops : float;
  mutable a_enforced_flows : int;
  mutable a_enforced_packets : int;
  mutable a_policy_violations : int;
  mutable a_violating_flows : int;
  mutable a_events : int;
}

let fresh_acc n_mboxes =
  {
    a_loads = Array.make n_mboxes 0.0;
    a_packet_hops = 0.0;
    a_direct_packet_hops = 0.0;
    a_enforced_flows = 0;
    a_enforced_packets = 0;
    a_policy_violations = 0;
    a_violating_flows = 0;
    a_events = 0;
  }

let result_of acc =
  {
    loads = acc.a_loads;
    packet_hops = acc.a_packet_hops;
    direct_packet_hops = acc.a_direct_packet_hops;
    enforced_flows = acc.a_enforced_flows;
    enforced_packets = acc.a_enforced_packets;
    policy_violations = acc.a_policy_violations;
    violating_flows = acc.a_violating_flows;
    events = acc.a_events;
  }

(* The chain walk, top-level so each hop closes over nothing: the
   previous [List.iter] callback plus its entity/here/violated refs
   cost ~18 minor words per enforced flow on the fast path.  Returns
   the router the flow ends up at.  A missing candidate stops the walk
   — exactly what the [violated] flag did; the skipped tail counted no
   events then either. *)
let rec walk_chain alive controller ~rule acc dist (fs : Workload.flow_spec)
    pkts entity here = function
  | [] -> here
  | nf :: rest -> (
    acc.a_events <- acc.a_events + 1;
    match
      Sdm.Controller.next_hop_result ?alive controller entity ~rule ~nf
        fs.Workload.flow
    with
    | Error `No_live_candidate ->
      (* Graceful degradation: the rest of the chain cannot be
         enforced, so the flow hot-potatoes straight to its
         destination and every packet counts as a violation. *)
      acc.a_violating_flows <- acc.a_violating_flows + 1;
      acc.a_policy_violations <- acc.a_policy_violations + fs.Workload.packets;
      here
    | Ok mb ->
      acc.a_loads.(mb.Mbox.Middlebox.id) <-
        acc.a_loads.(mb.Mbox.Middlebox.id) +. pkts;
      acc.a_packet_hops <-
        acc.a_packet_hops +. (dist.(here).(mb.Mbox.Middlebox.router) *. pkts);
      walk_chain alive controller ~rule acc dist fs pkts
        (Mbox.Entity.Middlebox mb.Mbox.Middlebox.id)
        mb.Mbox.Middlebox.router rest)

let process_flow ?alive ~controller ~rule_of acc (fs : Workload.flow_spec) =
  let dep = controller.Sdm.Controller.deployment in
  let dist = dep.Sdm.Deployment.dist in
  let router_of_proxy i = dep.Sdm.Deployment.proxies.(i).Mbox.Proxy.router in
  (* One event per flow record (classification), one per steering
     decision below. *)
  acc.a_events <- acc.a_events + 1;
  let pkts = float_of_int fs.Workload.packets in
  let src_router = router_of_proxy fs.Workload.src_proxy in
  let dst_router = router_of_proxy fs.Workload.dst_proxy in
  acc.a_direct_packet_hops <-
    acc.a_direct_packet_hops +. (dist.(src_router).(dst_router) *. pkts);
  match rule_of fs with
  | None ->
    acc.a_packet_hops <-
      acc.a_packet_hops +. (dist.(src_router).(dst_router) *. pkts)
  | Some rule when Policy.Action.is_permit rule.Policy.Rule.actions ->
    acc.a_packet_hops <-
      acc.a_packet_hops +. (dist.(src_router).(dst_router) *. pkts)
  | Some rule ->
    acc.a_enforced_flows <- acc.a_enforced_flows + 1;
    acc.a_enforced_packets <- acc.a_enforced_packets + fs.Workload.packets;
    let final_router =
      walk_chain alive controller ~rule acc dist fs pkts
        (Mbox.Entity.Proxy fs.Workload.src_proxy)
        src_router rule.Policy.Rule.actions
    in
    acc.a_packet_hops <-
      acc.a_packet_hops +. (dist.(final_router).(dst_router) *. pkts)

let run ?alive ~controller ~workload () =
  let dep = controller.Sdm.Controller.deployment in
  let acc = fresh_acc (Array.length dep.Sdm.Deployment.middleboxes) in
  let rule_of = Workload.rule_of workload in
  Array.iter
    (fun fs -> process_flow ?alive ~controller ~rule_of acc fs)
    workload.Workload.flows;
  result_of acc

let loads_of_nf controller result nf =
  let dep = controller.Sdm.Controller.deployment in
  Sdm.Deployment.middleboxes_of dep nf
  |> List.map (fun (m : Mbox.Middlebox.t) -> result.loads.(m.id))
  |> Array.of_list

let max_load_of_nf controller result nf =
  Array.fold_left max 0.0 (loads_of_nf controller result nf)

let stretch result =
  if result.direct_packet_hops = 0.0 then 1.0
  else result.packet_hops /. result.direct_packet_hops

let trace ~controller flow =
  let dep = controller.Sdm.Controller.deployment in
  let proxy =
    match Sdm.Deployment.proxy_of_addr dep flow.Netpkt.Flow.src with
    | Some p -> p
    | None -> invalid_arg "Flowsim.trace: source address is in no proxy subnet"
  in
  match Policy.Rule.first_match controller.Sdm.Controller.rules flow with
  | None -> (None, [])
  | Some rule ->
    let entity = ref (Mbox.Entity.Proxy proxy.Mbox.Proxy.id) in
    let chain =
      List.map
        (fun nf ->
          let mb = Sdm.Controller.next_hop controller !entity ~rule ~nf flow in
          entity := Mbox.Entity.Middlebox mb.Mbox.Middlebox.id;
          mb)
        rule.Policy.Rule.actions
    in
    (Some rule, chain)

(* The Pktsim <-> Flowsim differential oracle: both compute per-mbox
   packet loads by entirely different mechanisms, and on a fault-free
   static configuration per-flow steering is deterministic, so they
   must agree exactly. *)
let differential ?abs_tol ?rel_tol t (stats : Pktsim.stats) =
  Audit.Differential.compare ?abs_tol ?rel_tol ~expected:t.loads
    ~observed:stats.Pktsim.loads ()
