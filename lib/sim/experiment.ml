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

(* ---- Controller-level churn replay (ABL-REOPT's oracle) ---------- *)

type reopt_step = {
  rs_failed : int list;
  rs_cold_pivots : int;
  rs_cold_phase1 : int;
  rs_warm_pivots : int;
  rs_warm_phase1 : int;
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_seed : int list option;
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
        let seed = Sdm.Controller.seed_of warm ~failed in
        let warm = reopt_exn warm ~failed ~use_warm:true ~traffic in
        let cl = lp cold and wl = lp warm in
        let cold_lambda = cl.Sdm.Lp_formulation.lambda in
        let warm_lambda = wl.Sdm.Lp_formulation.lambda in
        ( cold,
          warm,
          {
            rs_failed = failed;
            rs_cold_pivots = cl.Sdm.Lp_formulation.lp_pivots;
            rs_cold_phase1 = cl.Sdm.Lp_formulation.lp_phase1_pivots;
            rs_warm_pivots = wl.Sdm.Lp_formulation.lp_pivots;
            rs_warm_phase1 = wl.Sdm.Lp_formulation.lp_phase1_pivots;
            rs_cold_lambda = cold_lambda;
            rs_warm_lambda = warm_lambda;
            rs_seed = seed;
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
