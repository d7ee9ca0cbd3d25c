(* The benchmark's five workloads: how each is set up from a seed, what
   one repetition runs, and how its outputs are checked.  Everything is
   a closed loop with one client — a repetition starts when the
   previous one ends — and all traffic is simulated. *)

type name = Pkt_elephants | Pkt_mice | Pkt_churn | Flow_waxman | Reopt_waxman

let all = [ Pkt_elephants; Pkt_mice; Pkt_churn; Flow_waxman; Reopt_waxman ]

let to_string = function
  | Pkt_elephants -> "pkt-elephants"
  | Pkt_mice -> "pkt-mice"
  | Pkt_churn -> "pkt-churn"
  | Flow_waxman -> "flow-waxman"
  | Reopt_waxman -> "reopt-waxman"

let is_packet = function
  | Pkt_elephants | Pkt_mice | Pkt_churn -> true
  | Flow_waxman | Reopt_waxman -> false

(* Flow population at full scale; [--scale d] divides it by [d]. *)
let full_flows = function
  | Pkt_elephants -> 8_000
  | Pkt_mice -> 60_000
  | Pkt_churn -> 2_000
  | Flow_waxman -> 300_000
  | Reopt_waxman -> 400

(* Topology, middlebox placement and policy set are fixed (the
   experiments' seed 17, a placement where every middlebox is reachable
   through some candidate set), so two seeds differ in traffic, not in
   the network it crosses. *)
let network_seed = 17

type step = {
  ok : bool;  (** the re-solve returned [Ok] *)
  lambda : float;
  pivots : int;
  phase1 : int;
  warm_used : bool;
  fallback : bool;
}

type output =
  | Packets of Sim.Pktsim.stats
  | Flows of Sim.Flowsim.result list  (** HP, Rand, LB *)
  | Solves of step list

type env = {
  deployment : Sdm.Deployment.t;
  workload : Sim.Workload.t;
  traffic : Sdm.Measurement.t;
  plan : Sdm.Controller.t;
      (** the configuration the repetitions start from *)
  failure_sets : int list list;
      (** the churn chain: no change, one crash, two, staged recovery,
          no change *)
  phases : (string * float) list;  (** set-up phase -> seconds *)
  rep : unit -> float list * output;
      (** one repetition: the seconds ({!Span.now}) of each call into
          the program, and what the calls returned *)
  check : output -> (string * bool) list;
      (** output checks on the first repetition's output, run outside
          the timing *)
}

let ops env = function
  | Packets s -> s.Sim.Pktsim.injected_packets
  | Flows rs -> List.length rs * Array.length env.workload.Sim.Workload.flows
  | Solves steps -> List.length steps

let configure deployment ~rules kind =
  match Sdm.Controller.configure deployment ~rules kind with
  | Ok c -> c
  | Error e -> failwith ("controller configuration failed: " ^ e)

let time f =
  let t0 = Span.now () in
  let r = f () in
  (r, Span.now () -. t0)

let with_sizes (w : Sim.Workload.t) size =
  let flows =
    Array.map
      (fun (f : Sim.Workload.flow_spec) -> { f with Sim.Workload.packets = size () })
      w.Sim.Workload.flows
  in
  let total_packets =
    Array.fold_left (fun acc (f : Sim.Workload.flow_spec) -> acc + f.Sim.Workload.packets) 0 flows
  in
  { w with Sim.Workload.flows; total_packets }

(* The flows a workload runs.  Where the seed draws the population it
   picks hosts, ports and policies, but flow sizes are one fixed draw
   from the generator's power law ([1, 5000] packets, 30k flows ~ 1M
   packets, as {!Sim.Workload} calibrates it): with a few thousand
   heavy-tailed flows, the packet volume alone moves by ~10% from seed
   to seed.  pkt-churn and reopt-waxman keep the whole population
   fixed: their cost is the LP's, and pivot counts swing by ~20%
   between traffic draws — pkt-churn's seed drives the fault-loss
   stream instead, and reopt-waxman replays one fixed instance. *)
let population name ~deployment ~seed ~flows =
  let generate seed =
    Sim.Workload.generate ~deployment ~seed ~rule_seed:network_seed ~flows ()
  in
  let fixed_sizes w =
    let law = Stdx.Power_law.calibrate ~lo:1 ~hi:5000 ~mean:(1e6 /. 30e3) in
    let rng = Stdx.Rng.create network_seed in
    with_sizes w (fun () -> Stdx.Power_law.sample law rng)
  in
  match name with
  | Pkt_elephants | Flow_waxman -> fixed_sizes (generate seed)
  | Pkt_mice -> with_sizes (generate seed) (fun () -> 1)
  | Pkt_churn | Reopt_waxman -> generate network_seed

(* ABL-REOPT's victims: the first IDS and the first FW box, from two
   functions, so excluding both never empties a candidate set. *)
let churn_victims deployment =
  let first nf =
    (List.hd (Sdm.Deployment.middleboxes_of deployment nf)).Mbox.Middlebox.id
  in
  (first Policy.Action.IDS, first Policy.Action.FW)

let steps_of_chain ~traffic base failure_sets =
  let _, rev =
    List.fold_left
      (fun (c, acc) failed ->
        match
          time (fun () ->
              Sdm.Controller.reoptimize c ~failed ~use_warm:true ~traffic ())
        with
        | Ok c', dt ->
          let lp = Option.get c'.Sdm.Controller.lp in
          ( c',
            ( dt,
              {
                ok = true;
                lambda = lp.Sdm.Lp_formulation.lambda;
                pivots = lp.Sdm.Lp_formulation.lp_pivots;
                phase1 = lp.Sdm.Lp_formulation.lp_phase1_pivots;
                warm_used = lp.Sdm.Lp_formulation.lp_warm_used;
                fallback = lp.Sdm.Lp_formulation.lp_fallback;
              } )
            :: acc )
        | Error _, dt ->
          ( c,
            ( dt,
              {
                ok = false;
                lambda = nan;
                pivots = 0;
                phase1 = 0;
                warm_used = false;
                fallback = false;
              } )
            :: acc ))
      (base, []) failure_sets
  in
  List.split (List.rev rev)

(* |a - b| <= 1e-6 * max(1, |b|): the optima agreement ABL-REOPT's
   replay checks on every step. *)
let agree a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let setup name ~seed ~scale =
  let phases = ref [] in
  let phase label f =
    let r, dt = Span.timed ("setup." ^ label) f in
    phases := (label, dt) :: !phases;
    r
  in
  let scenario =
    if is_packet name then Sim.Experiment.Campus else Sim.Experiment.Waxman
  in
  let deployment =
    phase "deployment" (fun () ->
        Sim.Experiment.build_deployment scenario ~seed:network_seed)
  in
  let workload, traffic =
    phase "workload" (fun () ->
        let w =
          population name ~deployment ~seed ~flows:(max 1 (full_flows name / scale))
        in
        (w, Sim.Workload.measure w))
  in
  let rules = workload.Sim.Workload.rules in
  let v1, v2 = churn_victims deployment in
  let failure_sets = [ []; [ v1 ]; [ v1; v2 ]; [ v2 ]; []; [] ] in
  let env plan rep check =
    {
      deployment;
      workload;
      traffic;
      plan;
      failure_sets;
      phases = [];
      rep;
      check;
    }
  in
  let packet_rep ~config ~controller () =
    let stats, dt =
      time (fun () -> Sim.Pktsim.run ~config ~controller ~workload ())
    in
    ([ dt ], Packets stats)
  in
  let e =
    match name with
    | Pkt_elephants | Pkt_mice ->
      let lb =
        phase "controller" (fun () ->
            configure deployment ~rules (Sdm.Controller.Load_balanced traffic))
      in
      let check = function
        | Packets stats ->
          let expected = Sim.Flowsim.run ~controller:lb ~workload () in
          [ ("flowsim differential",
             (Sim.Flowsim.differential expected stats).Audit.Differential.ok) ]
        | _ -> [ ("output kind", false) ]
      in
      env lb (packet_rep ~config:Sim.Pktsim.default_config ~controller:lb) check
    | Pkt_churn ->
      let hp =
        phase "controller" (fun () ->
            configure deployment ~rules Sdm.Controller.Hot_potato)
      in
      (* A fault-free probe under the stale plan fixes the horizon the
         epochs and the churn schedule are placed within. *)
      let horizon =
        phase "probe" (fun () ->
            (Sim.Pktsim.run ~controller:hp ~workload ()).Sim.Pktsim.sim_time)
      in
      let epoch = horizon /. 10.0 in
      let schedule =
        Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(seed + 3)
          Fault.Schedule.
            [
              { at = 0.15 *. horizon; what = Mbox_crash v1 };
              { at = 0.35 *. horizon; what = Mbox_recover v1 };
              { at = 0.45 *. horizon; what = Mbox_crash v2 };
              { at = 0.65 *. horizon; what = Mbox_recover v2 };
            ]
      in
      let live =
        {
          Sim.Pktsim.default_live with
          epoch_interval = epoch;
          reconcile_interval = epoch /. 4.0;
          warm_start = true;
        }
      in
      let config =
        {
          Sim.Pktsim.default_config with
          faults = Some schedule;
          live = Some live;
        }
      in
      let check = function
        | Packets stats ->
          let audited =
            Sim.Pktsim.run ~config:{ config with audit = true } ~controller:hp
              ~workload ()
          in
          [
            ( "audit: zero invariant violations",
              match audited.Sim.Pktsim.audit_report with
              | Some r -> r.Audit.Checker.violations = 0
              | None -> false );
            ( "audited run equals unaudited run",
              { audited with Sim.Pktsim.audit_report = None } = stats );
          ]
        | _ -> [ ("output kind", false) ]
      in
      env hp (packet_rep ~config ~controller:hp) check
    | Flow_waxman ->
      let controllers =
        phase "controller" (fun () ->
            [
              configure deployment ~rules Sdm.Controller.Hot_potato;
              configure deployment ~rules Sdm.Controller.Random_uniform;
              configure deployment ~rules (Sdm.Controller.Load_balanced traffic);
            ])
      in
      let rep () =
        let runs =
          List.map
            (fun controller ->
              time (fun () -> Sim.Flowsim.run ~controller ~workload ()))
            controllers
        in
        (List.map snd runs, Flows (List.map fst runs))
      in
      (* Every strategy enforces the same packets, so each function's
         total load must not depend on the strategy. *)
      let check = function
        | Flows results ->
          let total (r : Sim.Flowsim.result) nf =
            List.fold_left
              (fun acc (m : Mbox.Middlebox.t) -> acc +. r.Sim.Flowsim.loads.(m.id))
              0.0
              (Sdm.Deployment.middleboxes_of deployment nf)
          in
          List.map
            (fun nf ->
              ( "equal " ^ Policy.Action.nf_to_string nf ^ " load across strategies",
                match results with
                | [] -> false
                | r0 :: rest ->
                  List.for_all (fun r -> total r nf = total r0 nf) rest ))
            (Sdm.Deployment.functions deployment)
        | _ -> [ ("output kind", false) ]
      in
      env (List.nth controllers 2) rep check
    | Reopt_waxman ->
      let base =
        phase "controller" (fun () ->
            configure deployment ~rules (Sdm.Controller.Load_balanced traffic))
      in
      let rep () =
        let dts, steps = steps_of_chain ~traffic base failure_sets in
        (dts, Solves steps)
      in
      (* The cold chain is the reference every warm step must match. *)
      let check = function
        | Solves steps ->
          let cold =
            List.map
              (fun failed ->
                match
                  Sdm.Controller.reoptimize base ~failed ~use_warm:false ~traffic ()
                with
                | Ok c -> Some (Option.get c.Sdm.Controller.lp).Sdm.Lp_formulation.lambda
                | Error _ -> None)
              failure_sets
          in
          [
            ("every re-solve returned Ok", List.for_all (fun s -> s.ok) steps);
            ( "warm optima agree with cold on every step",
              List.length steps = List.length cold
              && List.for_all2
                   (fun s c ->
                     match c with Some l -> s.ok && agree s.lambda l | None -> false)
                   steps cold );
          ]
        | _ -> [ ("output kind", false) ]
      in
      env base rep check
  in
  { e with phases = List.rev !phases }
