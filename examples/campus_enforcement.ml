(* Campus enforcement: the paper's motivating scenario end to end.

   The campus topology (2 gateways, 16 cores, 10 edge routers) with
   the evaluation's middlebox deployment; a realistic mixed workload
   across the three policy classes; all three enforcement strategies
   compared on per-type maximum load, load spread, and path stretch.

     dune exec examples/campus_enforcement.exe *)

let () =
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
  Format.printf "deployment: %a@." Netgraph.Topology.pp
    deployment.Sdm.Deployment.topo;
  Array.iter
    (fun (m : Mbox.Middlebox.t) -> Format.printf "  %a@." Mbox.Middlebox.pp m)
    deployment.Sdm.Deployment.middleboxes;

  let flows = 60_000 in
  let s = Sim.Flowlevel.scenario deployment ~seed:17 ~flows in
  let workload = s.Sim.Flowlevel.workload in
  let runs = Sim.Flowlevel.sweep [ (s, Sim.Flowlevel.strategies) ] in
  Format.printf "@.workload: %d flows, %d packets, %d policies@." flows
    workload.Sim.Workload.total_packets
    (List.length workload.Sim.Workload.rules);
  List.iter
    (fun r -> Format.printf "  %a@." Policy.Rule.pp r)
    workload.Sim.Workload.rules;

  Format.printf "@.%-6s %-6s %12s %12s %12s %10s@." "strat" "type" "max" "min"
    "mean" "imbalance";
  List.iter
    (fun (strategy, controller, result) ->
      List.iter
        (fun nf ->
          let loads = Sim.Flowsim.loads_of_nf controller result nf in
          let s = Stdx.Stats.summarize loads in
          Format.printf "%-6s %-6s %12.0f %12.0f %12.0f %10.2f@."
            strategy
            (Policy.Action.nf_to_string nf)
            s.Stdx.Stats.max s.Stdx.Stats.min s.Stdx.Stats.mean
            (s.Stdx.Stats.max /. s.Stdx.Stats.mean))
        (List.map fst Sim.Experiment.mbox_counts);
      Format.printf "%-6s stretch = %.2fx of shortest-path hops@.@." strategy
        (Sim.Flowsim.stretch result))
    runs;

  (* The LP's view of what it just balanced. *)
  let _, lb, _ = List.find (fun (strategy, _, _) -> strategy = "LB") runs in
  match lb.Sdm.Controller.lp with
  | Some lp ->
    Format.printf
      "LB linear program: %d variables, %d constraints, lambda = %.0f@."
      lp.Sdm.Lp_formulation.lp_vars lp.Sdm.Lp_formulation.lp_constraints
      lp.Sdm.Lp_formulation.lambda
  | None -> ()
