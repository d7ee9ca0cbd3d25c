(* Every report is a Table.doc: preamble lines around table specs.
   The CSV exports reuse the same column lists. *)

open Experiment
module T = Table

let nf_name = Policy.Action.nf_to_string

(* ---- Figures 4 and 5 ------------------------------------------------ *)

let figure_columns =
  let strategy head pick =
    T.col ~w:10 head (T.Load (fun (nf, p) -> pick (List.assoc nf p.max_loads)))
  in
  T.[ csv "nf" (Str (fun (nf, _) -> nf_name nf));
      col ~w:12 "flows" (Int (fun (_, p) -> p.flows));
      col ~w:10 "packets" (Load (fun (_, p) -> float_of_int p.total_packets));
      strategy "HP" (fun (hp, _, _) -> hp);
      strategy "Rand" (fun (_, rand, _) -> rand);
      strategy "LB" (fun (_, _, lb) -> lb) ]

let figure (fig : figure) =
  let nfs = match fig.points with [] -> [] | p :: _ -> List.map fst p.max_loads in
  T.line "=== Max middlebox load vs traffic volume (%s topology) ==="
    (scenario_name fig.scenario)
  :: List.concat_map
       (fun nf ->
         T.[ blank; line "-- %s --" (nf_name nf);
             grid figure_columns (List.map (fun p -> (nf, p)) fig.points) ])
       nfs

let figure_csv (fig : figure) =
  T.to_csv figure_columns
    (List.concat_map (fun p -> List.map (fun (nf, _) -> (nf, p)) p.max_loads) fig.points)

(* ---- Table III: a max and a min line per type in text, one CSV row -- *)

let table3 rows =
  let strategy head f = T.col ~w:12 head (T.Float (0, 0, f)) in
  let lines r (hp, rand, lb) suffix = (nf_name r.nf ^ suffix, hp, rand, lb) in
  T.[ line "=== Load distribution: max/min load per middlebox type (Table III) ===";
      grid
        [ col ~w:(-10) "Middlebox" (Str (fun (label, _, _, _) -> label));
          strategy "Hot-potato" (fun (_, hp, _, _) -> hp);
          strategy "Random" (fun (_, _, rand, _) -> rand);
          strategy "Load-balance" (fun (_, _, _, lb) -> lb) ]
        (List.concat_map
           (fun r ->
             [ lines r (r.hp_max, r.rand_max, r.lb_max) " max.";
               lines r (r.hp_min, r.rand_min, r.lb_min) " min." ])
           rows) ]

let table3_csv rows =
  let load head f = T.csv head (T.Float (0, 0, f)) in
  T.to_csv
    (T.csv "nf" (T.Str (fun r -> nf_name r.nf))
     :: List.map2 load
          [ "hp_max"; "hp_min"; "rand_max"; "rand_min"; "lb_max"; "lb_min" ]
          [ (fun r -> r.hp_max); (fun r -> r.hp_min); (fun r -> r.rand_max);
            (fun r -> r.rand_min); (fun r -> r.lb_max); (fun r -> r.lb_min) ])
    rows

(* ---- Flow-level ablations ------------------------------------------- *)

let k_ablation points =
  let label p = Printf.sprintf "%9d, %5d" p.k_fw_ids p.k_wp_tm in
  let load (nf, _) = T.col ~w:10 (nf_name nf) (T.Load (fun p -> List.assoc nf p.lb_max_by_nf)) in
  T.[ line "=== Ablation: candidate-set size k vs LB max load (campus) ===";
      grid (col ~w:14 "k (FW/IDS, WP/TM)" (Str label) :: List.map load mbox_counts) points ]

let failure_ablation (f : failure_report) =
  let nf = nf_name f.failed_nf in
  let reoptimized f =
    Printf.sprintf "%s (lambda %s)" (T.millions f.reoptimized_max)
      (T.millions f.reoptimized_lambda)
  in
  T.[ line "=== Ablation: middlebox failure, fast failover vs re-optimization ===";
      line "failed middlebox: mbox%d (%s), %d survivors of its type" f.failed_mbox nf
        f.survivors;
      fields ~w:38
        [ col (Printf.sprintf "max %s load before failure (LB):" nf)
            (Load (fun f -> f.before_max));
          col "after failure, local fast failover:" (Load (fun f -> f.failover_max));
          col "after controller re-optimization:" (Str reoptimized);
          col "hot-potato under the same failure:" (Load (fun f -> f.hp_failover_max)) ]
        f ]

let sketch_ablation points =
  T.line "=== Ablation: Count-Min sketched measurement vs exact (campus) ==="
  :: (match points with
     | [] -> []
     | p :: _ ->
       [ T.line "exact matrix: %d cells; exact lambda %s; realized max %s" p.exact_cells
           (T.millions p.exact_lambda) (T.millions p.exact_realized_max) ])
  @ T.[ grid
          [ col ~w:10 "epsilon" (Float (4, 4, fun p -> p.epsilon));
            col ~w:14 "sketch cells" (Int (fun p -> p.sketch_cells));
            col ~w:12 "lambda" (Load (fun p -> p.sketched_lambda));
            col ~w:14 "realized max" (Load (fun p -> p.sketched_realized_max)) ]
          points ]

let epochs metrics =
  let open Epochsim in
  T.[ line "=== Ablation: epoch adaptation under drifting traffic (campus) ===";
      grid
        [ col ~w:6 "epoch" (Int (fun m -> m.epoch));
          col ~w:9 "flows" (Int (fun m -> m.flows));
          col ~w:9 "packets" (Load (fun m -> float_of_int m.packets));
          col ~w:12 "stale LB" (Load (fun m -> m.stale_lb_max));
          col ~w:14 "clairvoyant" (Load (fun m -> m.clairvoyant_lb_max));
          col ~w:10 "HP" (Load (fun m -> m.hp_max));
          col ~w:8 "gap" (Float (2, 2, fun m -> m.staleness_gap)) ]
        metrics ]

let lp_ablation (l : lp_compare) =
  T.[ line "=== Ablation: LP formulation Eq.(1) exact vs Eq.(2) simplified ===";
      inline
        [ col ~w:(-11) "" (Str fst);
          col "lambda" (Float (0, 0, fun (_, s) -> s.lp_lambda));
          col "realized" (Float (0, 0, fun (_, s) -> s.lp_realized));
          col "vars" (Int (fun (_, s) -> s.lp_vars));
          col "constraints" (Int (fun (_, s) -> s.lp_constraints));
          col "weight rows" (Int (fun (_, s) -> s.lp_weight_rows)) ]
        [ ("exact:", l.exact); ("simplified:", l.simplified) ] ]
