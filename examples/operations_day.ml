(* A day in the life of the SDM controller.

   An operational narrative chaining the whole API: bring the network
   up, measure an epoch, plan load-balanced enforcement, verify and
   price the configuration, survive traffic drift on stale weights,
   re-plan, lose a middlebox, fail over locally, re-optimize around the
   failure, and verify again.  Every transition prints the metric an
   operator would watch: the maximum middlebox load.

     dune exec examples/operations_day.exe *)

let max_load result = Array.fold_left max 0.0 result.Sim.Flowsim.loads

let step = ref 0

let report label value =
  incr step;
  Format.printf "%2d. %-58s max load %s@." !step label (Sim.Table.millions value)

let () =
  let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
  Format.printf "network: %a@.@." Netgraph.Topology.pp deployment.Sdm.Deployment.topo;

  (* 08:00 — first epoch arrives with no measurements: hot-potato. *)
  let epoch1 = Sim.Workload.generate ~deployment ~seed:101 ~flows:60_000 () in
  let rules = epoch1.Sim.Workload.rules in
  let configure ?failed kind =
    match Sdm.Controller.configure deployment ~rules ?failed kind with
    | Ok c -> c
    | Error e -> failwith e
  in
  let hp = configure Sdm.Controller.Hot_potato in
  report "08:00 epoch 1, no measurements yet (hot-potato)"
    (max_load (Sim.Flowsim.run ~controller:hp ~workload:epoch1 ()));

  (* 09:00 — the proxies reported; the controller plans LB weights. *)
  let traffic1 = Sim.Workload.measure epoch1 in
  let lb1 = configure (Sdm.Controller.Load_balanced traffic1) in
  (match Sdm.Verify.check lb1 with
  | Ok () -> ()
  | Error _ -> failwith "configuration failed verification");
  Format.printf "    config verified and priced: %a@."
    Sdm.Controller.pp_config_summary
    (Sdm.Controller.config_summary lb1);
  report "09:00 load-balanced weights deployed"
    (max_load (Sim.Flowsim.run ~controller:lb1 ~workload:epoch1 ()));

  (* 12:00 — traffic drifts (the one-to-many class surges); yesterday's
     weights are stale but still beat hot-potato. *)
  let epoch2 =
    Sim.Workload.generate ~deployment ~seed:202 ~rule_seed:101
      ~class_mix:(0.2, 0.6, 0.2) ~flows:70_000 ()
  in
  report "12:00 traffic drifts; stale weights"
    (max_load (Sim.Flowsim.run ~controller:lb1 ~workload:epoch2 ()));
  report "      (hot-potato would have given)"
    (max_load (Sim.Flowsim.run ~controller:hp ~workload:epoch2 ()));

  (* 13:00 — re-plan on the fresh matrix. *)
  let lb2 = configure (Sdm.Controller.Load_balanced (Sim.Workload.measure epoch2)) in
  report "13:00 re-planned on the noon measurements"
    (max_load (Sim.Flowsim.run ~controller:lb2 ~workload:epoch2 ()));

  (* 15:00 — the busiest IDS middlebox dies. *)
  let before = Sim.Flowsim.run ~controller:lb2 ~workload:epoch2 () in
  let ids = Sdm.Deployment.middleboxes_of deployment Policy.Action.IDS in
  let victim =
    List.fold_left
      (fun best (m : Mbox.Middlebox.t) ->
        if before.Sim.Flowsim.loads.(m.id) > before.Sim.Flowsim.loads.(best)
        then m.id
        else best)
      (List.hd ids).Mbox.Middlebox.id ids
  in
  Format.printf "    mbox%d (IDS) fails@." victim;
  let alive id = id <> victim in
  report "15:00 local fast failover (stale weights, survivors only)"
    (max_load (Sim.Flowsim.run ~alive ~controller:lb2 ~workload:epoch2 ()));

  (* 15:05 — the controller re-optimizes without the dead box. *)
  let lb3 =
    configure ~failed:[ victim ]
      (Sdm.Controller.Load_balanced (Sim.Workload.measure epoch2))
  in
  (match Sdm.Verify.check lb3 with
  | Ok () -> ()
  | Error _ -> failwith "post-failure configuration failed verification");
  let healed = Sim.Flowsim.run ~controller:lb3 ~workload:epoch2 () in
  assert (healed.Sim.Flowsim.loads.(victim) = 0.0);
  report "15:05 controller re-optimized around the failure (verified)"
    (max_load healed);

  (* 17:00 — a new policy lands; only the touched entities get pushes. *)
  let extra =
    Policy.Rule.make ~id:(List.length rules)
      ~descriptor:
        (Policy.Descriptor.make
           ~src:(Sdm.Deployment.subnet_of deployment 2)
           ~dport:(Policy.Descriptor.Port 443) ())
      ~actions:Policy.Action.[ FW; IDS ]
  in
  (match
     Sdm.Controller.update_rules lb3 ~rules:(rules @ [ extra ])
       (Sdm.Controller.Load_balanced (Sim.Workload.measure epoch2))
   with
  | Ok delta ->
    Format.printf
      "    17:00 policy added: %d entities re-pushed (%d rows added, %d \
       removed)@."
      delta.Sdm.Controller.entities_touched delta.Sdm.Controller.rows_added
      delta.Sdm.Controller.rows_removed
  | Error e -> failwith e);
  Format.printf "@.day over: enforcement never lapsed.@."
