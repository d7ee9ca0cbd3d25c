(* Waxman scale: the 425-router random topology with 400 stub networks.

   Demonstrates that the controller scales: distributed OSPF
   convergence over the full graph, candidate-set computation for 422
   entities, and the source-grouping device that keeps the Eq. (2) LP
   small (DESIGN.md) — the LP is solved with and without grouping and
   the sizes and optima printed side by side.

     dune exec examples/waxman_scale.exe *)

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Format.printf "  [%s: %.2fs]@." name (Unix.gettimeofday () -. t0);
  r

let () =
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Waxman ~seed:17 in
  let topo = deployment.Sdm.Deployment.topo in
  Format.printf "topology: %a@." Netgraph.Topology.pp topo;

  (* Routers establish their own tables by LSA flooding. *)
  let ospf =
    time "OSPF convergence" (fun () -> Ospf.Protocol.converge topo)
  in
  Format.printf "OSPF: %d LSA transmissions, converged at t=%.1f@."
    ospf.Ospf.Protocol.stats.Ospf.Protocol.messages
    ospf.Ospf.Protocol.stats.Ospf.Protocol.convergence_time;

  let flows = 120_000 in
  let workload =
    time "workload generation" (fun () ->
        Sim.Workload.generate ~deployment ~seed:17 ~flows ())
  in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  Format.printf "workload: %d flows, %d packets@." flows
    workload.Sim.Workload.total_packets;

  let candidates =
    time "candidate sets" (fun () ->
        Sdm.Candidate.compute deployment ~k:Sdm.Controller.default_k)
  in

  (* The LP with and without source grouping: identical optimum, very
     different size.  The comparison runs on a reduced policy set —
     the ungrouped LP over 400 stub sources is exactly the blow-up
     grouping exists to avoid (at the full policy count it takes
     minutes where the grouped LP takes a fraction of a second). *)
  let small_workload =
    Sim.Workload.generate ~deployment ~per_class:2 ~seed:17 ~flows:20_000 ()
  in
  let small_rules = small_workload.Sim.Workload.rules in
  let small_traffic = Sim.Workload.measure small_workload in
  let solve ~group_sources label =
    match
      time label (fun () ->
          Sdm.Lp_formulation.solve_simplified candidates ~rules:small_rules
            ~traffic:small_traffic ~group_sources ())
    with
    | Ok r ->
      Format.printf "%s: lambda=%.0f vars=%d constraints=%d@." label
        r.Sdm.Lp_formulation.lambda r.Sdm.Lp_formulation.lp_vars
        r.Sdm.Lp_formulation.lp_constraints;
      r
    | Error e -> failwith e
  in
  let grouped = solve ~group_sources:true "LP with source grouping" in
  let ungrouped = solve ~group_sources:false "LP without grouping" in
  Format.printf "optima agree: %b@."
    (abs_float
       (grouped.Sdm.Lp_formulation.lambda -. ungrouped.Sdm.Lp_formulation.lambda)
    < 1.0);

  (* Enforce with the grouped solution. *)
  let controller =
    match
      Sdm.Controller.configure deployment ~rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let result = time "flow simulation" (fun () -> Sim.Flowsim.run ~controller ~workload ()) in
  List.iter
    (fun nf ->
      Format.printf "LB max %s load: %s@."
        (Policy.Action.nf_to_string nf)
        (Sim.Table.millions (Sim.Flowsim.max_load_of_nf controller result nf)))
    (List.map fst Sim.Experiment.mbox_counts)
