(* The flow-level experiments as data: scenarios, the cells that vary
   them, and a report over the (label, plan, result) rows the cells
   produce. *)

module T = Table

type scenario = {
  deployment : Sdm.Deployment.t;
  workload : Workload.t;
  plan : Sdm.Controller.t;
  alive : (int -> bool) option;
}

type 'k cell = 'k * (scenario -> scenario)
type 'k row = 'k * Sdm.Controller.t * Flowsim.result

type 'k t = {
  sweeps : (scenario * 'k cell list) list;
  probes : (Sdm.Controller.t * Flowsim.result) list;
  report : 'k row list -> Table.doc * (string * string) list;
}

let run s = (s.plan, Flowsim.run ?alive:s.alive ~controller:s.plan ~workload:s.workload ())

let sweep ?jobs sweeps =
  List.map (fun (k, (plan, result)) -> (k, plan, result)) (Ablation.fan ~run ?jobs sweeps)

let filter keep t =
  let keep_cells (s, cells) = (s, List.filter (fun (k, _) -> keep k) cells) in
  { t with sweeps = List.map keep_cells t.sweeps }

(* ---- Building blocks ------------------------------------------------ *)

let scenario ?(per_class = 5) ?rule_seed ?class_mix deployment ~seed ~flows =
  let workload =
    Workload.generate ~deployment ~per_class ~seed ?rule_seed ?class_mix ~flows ()
  in
  { deployment; workload; plan = Experiment.hot_potato deployment workload; alive = None }

let configure ?k ?failed kind s =
  { s with plan = Experiment.configure ?k ?failed s.deployment s.workload kind }

let lb ?k ?failed traffic = configure ?k ?failed (Sdm.Controller.Load_balanced traffic)

let strategies =
  [ ("HP", Fun.id);
    ("Rand", configure Sdm.Controller.Random_uniform);
    ("LB", fun s -> lb (Workload.measure s.workload) s) ]

let campus ?per_class ~flows ~seed () =
  scenario ?per_class (Experiment.build_deployment Experiment.Campus ~seed) ~seed ~flows

let nfs = List.map fst Experiment.mbox_counts
let nf_name = Policy.Action.nf_to_string
let lambda (plan : Sdm.Controller.t) =
  Option.fold ~none:0.0 ~some:(fun lp -> lp.Sdm.Lp_formulation.lambda) plan.lp
let max_load (r : Flowsim.result) = Array.fold_left max 0.0 r.loads
let row_max (_, _, r) = max_load r
let nf_max nf (_, plan, result) = Flowsim.max_load_of_nf plan result nf
let find name rows = List.find (fun (k, _, _) -> k = name) rows

(* A report without CSV files. *)
let text doc rows = (doc rows, [])

(* Consecutive rows labelled (point, name), as (point, rows labelled
   by name). *)
let by_point rows =
  List.fold_right
    (fun ((p, name), plan, r) acc ->
      match acc with
      | (p', named) :: rest when p' = p -> (p, (name, plan, r) :: named) :: rest
      | _ -> (p, [ (name, plan, r) ]) :: acc)
    rows []

(* ---- Figures 4 and 5 ------------------------------------------------ *)

let default_flow_counts = List.init 10 (fun i -> 30_000 * (i + 1))

(* Per-point integer seed: the [i]-th child stream of the sweep's root
   seed ({!Stdx.Rng.derive}), order-independent so a point's workload
   is a function of (root seed, point index) alone — not of which
   domain built it or how many points preceded it. *)
let point_seed ~seed i =
  Int64.to_int (Stdx.Rng.int64 (Stdx.Rng.derive (Stdx.Rng.create seed) i)) land max_int

(* Rows (type, ((flows, packets), the point's rows)). *)
let figure_columns =
  let strategy name =
    T.col ~w:10 name (T.Load (fun (nf, (_, rows)) -> nf_max nf (find name rows)))
  in
  T.[ csv "nf" (Str (fun (nf, _) -> nf_name nf));
      col ~w:12 "flows" (Int (fun (_, ((flows, _), _)) -> flows));
      col ~w:10 "packets" (Load (fun (_, ((_, packets), _)) -> float_of_int packets));
      strategy "HP";
      strategy "Rand";
      strategy "LB" ]

let figure_report topology ~file rows =
  let points = by_point rows in
  let per nf = List.map (fun p -> (nf, p)) points in
  let point_major = List.concat_map (fun p -> List.map (fun nf -> (nf, p)) nfs) points in
  ( T.line "=== Max middlebox load vs traffic volume (%s topology) ==="
      (Experiment.scenario_name topology)
    :: List.concat_map
         (fun nf -> T.[ blank; line "-- %s --" (nf_name nf); grid figure_columns (per nf) ])
         nfs,
    [ (file, T.to_csv figure_columns point_major) ] )

let figure topology ?(flow_counts = default_flow_counts) ~seed ~jobs ~file () =
  let deployment = Experiment.build_deployment topology ~seed in
  (* Fixed policy set across the sweep; fresh flow population per
     volume point — the paper scales traffic, not policies. *)
  let point i flows () =
    let s = scenario deployment ~seed:(point_seed ~seed i) ~rule_seed:seed ~flows in
    let label name = ((flows, s.workload.total_packets), name) in
    (s, List.map (fun (name, f) -> (label name, f)) strategies)
  in
  { sweeps = Experiment.fan_out ~jobs (List.mapi point flow_counts);
    probes = [];
    report = figure_report topology ~file }

(* ---- Table III: a max and a min line per type in text, one CSV row -- *)

let table3_report ?file rows =
  let summary name nf =
    let _, plan, r = find name rows in
    Stdx.Stats.summarize (Flowsim.loads_of_nf plan r nf)
  in
  let strategy head name = T.col ~w:12 head (T.Float (0, 0, fun (_, stat) -> stat name)) in
  let lines nf =
    [ (nf_name nf ^ " max.", fun name -> (summary name nf).max);
      (nf_name nf ^ " min.", fun name -> (summary name nf).min) ]
  in
  let csv_cols (name, head) =
    T.[ csv (head ^ "_max") (Float (0, 0, fun nf -> (summary name nf).max));
        csv (head ^ "_min") (Float (0, 0, fun nf -> (summary name nf).min)) ]
  in
  ( T.[ line "=== Load distribution: max/min load per middlebox type (Table III) ===";
        grid
          [ col ~w:(-10) "Middlebox" (Str fst);
            strategy "Hot-potato" "HP";
            strategy "Random" "Rand";
            strategy "Load-balance" "LB" ]
          (List.concat_map lines nfs) ],
    Option.fold ~none:[]
      ~some:(fun file ->
        [ ( file,
            T.to_csv
              (T.csv "nf" (T.Str nf_name)
              :: List.concat_map csv_cols [ ("HP", "hp"); ("Rand", "rand"); ("LB", "lb") ])
              nfs ) ])
      file )

let table3 topology ?file ~flows ~seed () =
  let deployment = Experiment.build_deployment topology ~seed in
  { sweeps = [ (scenario deployment ~seed ~flows, strategies) ];
    probes = [];
    report = table3_report ?file }

(* ---- ABL-K: candidate-set size ------------------------------------ *)

let k_sizes = [ (1, 1); (2, 1); (2, 2); (4, 2); (6, 3) ]

let k ~flows ~seed =
  let s = campus ~flows ~seed () in
  let traffic = Workload.measure s.workload in
  let cell (fw_ids, wp_tm) =
    let k = function
      | Policy.Action.FW | Policy.Action.IDS -> fw_ids
      | Policy.Action.WP | Policy.Action.TM | Policy.Action.Custom _ -> wp_tm
    in
    ((fw_ids, wp_tm), lb ~k traffic)
  in
  let size ((fw_ids, wp_tm), _, _) = Printf.sprintf "%9d, %5d" fw_ids wp_tm in
  let load nf = T.col ~w:10 (nf_name nf) (T.Load (nf_max nf)) in
  { sweeps = [ (s, List.map cell k_sizes) ];
    probes = [];
    report =
      text (fun rows ->
          T.[ line "=== Ablation: candidate-set size k vs LB max load (campus) ===";
              grid (col ~w:14 "k (FW/IDS, WP/TM)" (Str size) :: List.map load nfs) rows ]) }

(* ---- ABL-FAIL: middlebox failure ----------------------------------- *)

let fail ~flows ~seed =
  let s = campus ~flows ~seed () in
  let traffic = Workload.measure s.workload in
  let s = lb traffic s in
  let ((plan, before) as probe) = run s in
  (* Kill the most-loaded IDS middlebox. *)
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of s.deployment nf in
  let failed = Experiment.busiest victims before.loads in
  let alive = Some (fun id -> id <> failed) in
  let max_surviving (_, _, (r : Flowsim.result)) =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) -> if m.id = failed then acc else max acc r.loads.(m.id))
      0.0 victims
  in
  let after name = T.Load (fun rows -> max_surviving (find name rows)) in
  let reoptimized rows =
    let ((_, plan, _) as row) = find "re-optimized" rows in
    Printf.sprintf "%s (lambda %s)" (T.millions (max_surviving row)) (T.millions (lambda plan))
  in
  { sweeps =
      [ ( s,
          [ (* Local fast failover with the stale LP weights. *)
            ("failover", fun s -> { s with alive });
            (* The controller re-optimizes without the failed box. *)
            ("re-optimized", lb ~failed:[ failed ] traffic);
            ("HP failover", fun s -> { (configure Sdm.Controller.Hot_potato s) with alive }) ] ) ];
    probes = [ probe ];
    report =
      text (fun rows ->
          T.[ line "=== Ablation: middlebox failure, fast failover vs re-optimization ===";
              line "failed middlebox: mbox%d (%s), %d survivors of its type" failed (nf_name nf)
                (List.length victims - 1);
              fields ~w:38
                [ col (Printf.sprintf "max %s load before failure (LB):" (nf_name nf))
                    (Load (fun _ -> Flowsim.max_load_of_nf plan before nf));
                  col "after failure, local fast failover:" (after "failover");
                  col "after controller re-optimization:" (Str reoptimized);
                  col "hot-potato under the same failure:" (after "HP failover") ]
                rows ]) }

(* ---- ABL-EPOCH: adaptation across measurement epochs ------------- *)

let epochs = 6

(* Rotating class skew: each epoch one policy class carries most of
   the traffic, shifting which middlebox types are hot. *)
let mix_for epoch =
  match epoch mod 3 with 0 -> (0.6, 0.2, 0.2) | 1 -> (0.2, 0.6, 0.2) | _ -> (0.2, 0.2, 0.6)

(* Volume oscillates ±25% around the base. *)
let volume_for ~flows epoch =
  int_of_float (float_of_int flows *. (0.75 +. (0.5 *. (float_of_int (epoch mod 4) /. 4.0))))

(* Rows ((epoch, flows, packets), the epoch's rows). *)
let epoch_columns =
  let load head w name = T.col ~w head (T.Load (fun (_, rows) -> row_max (find name rows))) in
  let gap (_, rows) =
    let stale = row_max (find "stale" rows) and clairvoyant = row_max (find "clairvoyant" rows) in
    if clairvoyant > 0.0 then stale /. clairvoyant else 1.0
  in
  T.[ col ~w:6 "epoch" (Int (fun ((e, _, _), _) -> e));
      col ~w:9 "flows" (Int (fun ((_, flows, _), _) -> flows));
      col ~w:9 "packets" (Load (fun ((_, _, packets), _) -> float_of_int packets));
      load "stale LB" 12 "stale";
      load "clairvoyant" 14 "clairvoyant";
      load "HP" 10 "HP";
      col ~w:8 "gap" (Float (2, 2, gap)) ]

let epoch ~flows ~seed ~jobs =
  let deployment = Experiment.build_deployment Experiment.Campus ~seed in
  (* Each epoch redraws its flows from its own seed under the fixed
     policy set, so epochs are independent; only the stale plan reads
     the previous epoch's measurement. *)
  let build e () =
    let s =
      scenario deployment ~seed:(seed + 1000 + e) ~rule_seed:seed ~class_mix:(mix_for e)
        ~flows:(volume_for ~flows e)
    in
    (s, Workload.measure s.workload)
  in
  let built = Experiment.fan_out ~jobs (List.init epochs build) in
  let cells e (s, measured) =
    let label name = ((e, volume_for ~flows e, s.workload.total_packets), name) in
    ( s,
      [ (* Epoch 0 has no measurement yet: hot-potato. *)
        (label "stale", if e = 0 then Fun.id else lb (snd (List.nth built (e - 1))));
        (label "clairvoyant", lb measured);
        (label "HP", Fun.id) ] )
  in
  { sweeps = List.mapi cells built;
    probes = [];
    report =
      text (fun rows ->
          T.[ line "=== Ablation: epoch adaptation under drifting traffic (campus) ===";
              grid epoch_columns (by_point rows) ]) }

(* ---- ABL-SKETCH: Count-Min sketched measurement ------------------- *)

let sketch_epsilons = [ 0.5; 0.2; 0.05; 0.01 ]

let sketch ~flows ~seed =
  let s = campus ~flows ~seed () in
  let exact = Workload.measure s.workload and rules = s.workload.rules in
  let s = lb exact s in
  let ((plan, exact_run) as probe) = run s in
  let n_proxies = Array.length s.deployment.proxies in
  let exact_cells =
    List.fold_left
      (fun acc rule -> acc + List.length (Sdm.Measurement.pairs_for exact ~rule))
      0
      (Sdm.Measurement.rules_with_traffic exact)
  in
  let cell epsilon =
    ( epsilon,
      fun s ->
        let sketch = Sdm.Sketch.of_workload_measurement ~exact ~n_proxies ~rules ~epsilon () in
        lb (Sdm.Sketch.to_measurement sketch ~rules) s )
  in
  let cells (epsilon, _, _) =
    Sdm.Sketch.memory_cells (Sdm.Sketch.create ~epsilon ~n_proxies ())
  in
  { sweeps = [ (s, List.map cell sketch_epsilons) ];
    probes = [ probe ];
    report =
      text (fun rows ->
          T.line "=== Ablation: Count-Min sketched measurement vs exact (campus) ==="
          :: (match rows with
             | [] -> []
             | _ ->
               [ T.line "exact matrix: %d cells; exact lambda %s; realized max %s" exact_cells
                   (T.millions (lambda plan)) (T.millions (max_load exact_run)) ])
          @ T.[ grid
                  [ col ~w:10 "epsilon" (Float (4, 4, fun (e, _, _) -> e));
                    col ~w:14 "sketch cells" (Int cells);
                    col ~w:12 "lambda" (Load (fun (_, plan, _) -> lambda plan));
                    col ~w:14 "realized max" (Load row_max) ]
                  rows ]) }

(* ---- ABL-LP: Eq. (1) vs Eq. (2) ----------------------------------- *)

let lp ~flows ~seed =
  let s = campus ~per_class:2 ~flows ~seed () in
  let traffic = Workload.measure s.workload in
  let lp_size f (_, (plan : Sdm.Controller.t), _) = f (Option.get plan.lp) in
  let weight_rows (_, plan, _) = (Sdm.Controller.config_summary plan).Sdm.Controller.weight_rows in
  { sweeps =
      [ ( s,
          [ ("exact:", configure (Sdm.Controller.Load_balanced_exact traffic));
            ("simplified:", lb traffic) ] ) ];
    probes = [];
    report =
      text (fun rows ->
          T.[ line "=== Ablation: LP formulation Eq.(1) exact vs Eq.(2) simplified ===";
              inline
                [ col ~w:(-11) "" (Str (fun (name, _, _) -> name));
                  col "lambda" (Float (0, 0, fun (_, plan, _) -> lambda plan));
                  col "realized" (Float (0, 0, row_max));
                  col "vars" (Int (lp_size (fun lp -> lp.Sdm.Lp_formulation.lp_vars)));
                  col "constraints"
                    (Int (lp_size (fun lp -> lp.Sdm.Lp_formulation.lp_constraints)));
                  col "weight rows" (Int weight_rows) ]
                rows ]) }
