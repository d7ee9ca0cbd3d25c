(* Failure recovery: the "dependable" in dependable policy enforcement.

   A middlebox dies mid-epoch.  Three things can happen to the traffic
   that was flowing through it:

   1. nothing (unacceptable — packets would blackhole);
   2. local fast failover: every proxy/middlebox skips the dead
      candidate and renormalises its forwarding weights over the
      survivors — no controller involvement, stale LP weights;
   3. controller re-optimization: failure is reported, the controller
      recomputes candidate sets without the dead box and re-solves the
      load-balancing LP.

   This example kills the busiest IDS middlebox on the campus topology
   and measures all three strategies through the transition.  Policy
   enforcement is never interrupted: every flow still traverses its
   full chain (asserted at the end).

     dune exec examples/failure_recovery.exe *)

let () =
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
  let flows = 60_000 in
  let workload = Sim.Workload.generate ~deployment ~seed:17 ~flows () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let lb =
    match
      Sdm.Controller.configure deployment ~rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let before = Sim.Flowsim.run ~controller:lb ~workload () in

  (* Pick the busiest IDS box as the victim. *)
  let ids_boxes = Sdm.Deployment.middleboxes_of deployment Policy.Action.IDS in
  let victim =
    List.fold_left
      (fun best (m : Mbox.Middlebox.t) ->
        if before.Sim.Flowsim.loads.(m.id) > before.Sim.Flowsim.loads.(best) then
          m.id
        else best)
      (List.hd ids_boxes).Mbox.Middlebox.id ids_boxes
  in
  Format.printf "victim: mbox%d (IDS), carrying %s packets before failure@."
    victim
    (Sim.Table.millions before.Sim.Flowsim.loads.(victim));

  let ids_max result =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) ->
        if m.id = victim then acc else max acc result.Sim.Flowsim.loads.(m.id))
      0.0 ids_boxes
  in
  Format.printf "max IDS load before failure: %s@."
    (Sim.Table.millions (ids_max before));

  (* Phase 1: fast failover, stale weights. *)
  let alive id = id <> victim in
  let failover = Sim.Flowsim.run ~alive ~controller:lb ~workload () in
  assert (failover.Sim.Flowsim.loads.(victim) = 0.0);
  Format.printf "@.phase 1 - local fast failover (no controller):@.";
  Format.printf "  max surviving IDS load: %s@."
    (Sim.Table.millions (ids_max failover));

  (* Phase 2: the controller re-optimizes without the victim. *)
  let reopt =
    match
      Sdm.Controller.configure deployment ~rules ~failed:[ victim ]
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let after = Sim.Flowsim.run ~controller:reopt ~workload () in
  assert (after.Sim.Flowsim.loads.(victim) = 0.0);
  Format.printf "@.phase 2 - controller re-optimization:@.";
  Format.printf "  max surviving IDS load: %s (LP optimum %s)@."
    (Sim.Table.millions (ids_max after))
    (Sim.Table.millions
       (Option.get reopt.Sdm.Controller.lp).Sdm.Lp_formulation.lambda);

  (* Enforcement never lapses: total middlebox work is identical in all
     three runs (every flow still visits its full chain). *)
  let total r = Array.fold_left ( +. ) 0.0 r.Sim.Flowsim.loads in
  assert (abs_float (total before -. total failover) < 1e-6);
  assert (abs_float (total before -. total after) < 1e-6);
  Format.printf
    "@.every flow kept its full chain through both phases (total middlebox \
     work unchanged: %s packet-hops).@."
    (Sim.Table.millions (total before))
