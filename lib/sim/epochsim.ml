type epoch_metrics = {
  epoch : int;
  flows : int;
  packets : int;
  stale_lb_max : float;
  clairvoyant_lb_max : float;
  hp_max : float;
  staleness_gap : float;
}

type report = { ep_rows : epoch_metrics list; ep_events : int }

(* Rotating class skew: each epoch one policy class carries most of
   the traffic, shifting which middlebox types are hot. *)
let mix_for epoch =
  match epoch mod 3 with
  | 0 -> (0.6, 0.2, 0.2)
  | 1 -> (0.2, 0.6, 0.2)
  | _ -> (0.2, 0.2, 0.6)

let volume_for ~base_flows epoch =
  let phase = float_of_int (epoch mod 4) /. 4.0 in
  int_of_float (float_of_int base_flows *. (0.75 +. (0.5 *. phase)))

let run ~deployment ?(epochs = 6) ?(base_flows = 60_000) ?(seed = 17) ?jobs () =
  if epochs < 1 then invalid_arg "Epochsim.run: need at least one epoch";
  let rules =
    (Workload.generate ~deployment ~seed ~flows:1 ()).Workload.rules
  in
  let configure kind =
    match Sdm.Controller.configure deployment ~rules kind with
    | Ok c -> c
    | Error e -> failwith ("Epochsim: " ^ e)
  in
  let hp_controller = configure Sdm.Controller.Hot_potato in
  let max_load result = Array.fold_left max 0.0 result.Flowsim.loads in
  let events = ref 0 in
  (* Epochs chain (the stale plan consumes the previous epoch's
     matrix), but within one epoch the three enforcement runs are
     independent and fan out across domains. *)
  let rec go epoch prev_traffic acc =
    if epoch >= epochs then List.rev acc
    else begin
      let flows = volume_for ~base_flows epoch in
      let workload =
        Workload.generate ~deployment ~seed:(seed + 1000 + epoch) ~rule_seed:seed
          ~class_mix:(mix_for epoch) ~flows ()
      in
      let traffic = Workload.measure workload in
      let stale_controller =
        match prev_traffic with
        | None -> hp_controller (* no measurement yet: hot-potato *)
        | Some t -> configure (Sdm.Controller.Load_balanced t)
      in
      let stale, clair, hp =
        let cell controller () = Flowsim.run ~controller ~workload () in
        match
          Array.to_list
            (Stdx.Domain_pool.map ?jobs
               (fun f -> f ())
               [|
                 cell stale_controller;
                 (fun () ->
                   let clair_controller =
                     configure (Sdm.Controller.Load_balanced traffic)
                   in
                   Flowsim.run ~controller:clair_controller ~workload ());
                 cell hp_controller;
               |])
        with
        | [ s; c; h ] -> (s, c, h)
        | _ -> assert false
      in
      events :=
        !events + stale.Flowsim.events + clair.Flowsim.events + hp.Flowsim.events;
      let stale_max = max_load stale and clair_max = max_load clair in
      let metrics =
        {
          epoch;
          flows;
          packets = workload.Workload.total_packets;
          stale_lb_max = stale_max;
          clairvoyant_lb_max = clair_max;
          hp_max = max_load hp;
          staleness_gap = (if clair_max > 0.0 then stale_max /. clair_max else 1.0);
        }
      in
      go (epoch + 1) (Some traffic) (metrics :: acc)
    end
  in
  let rows = go 0 None [] in
  { ep_rows = rows; ep_events = !events }
