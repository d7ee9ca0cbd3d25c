(* Every report is a Table.doc: preamble lines around table specs.
   The CSV exports reuse the same column lists. *)

open Experiment
module T = Table

let nf_name = Policy.Action.nf_to_string
let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

(* Columns over a row type whose run stats [st] extracts. *)
let stat ?csv w head st f = T.col ?csv ~w head (T.Int (fun r -> f (st r)))

let packets st =
  [
    stat 9 "injected" st (fun s -> s.Pktsim.injected_packets);
    stat 10 "delivered" st (fun s -> s.Pktsim.delivered_packets);
  ]

let max_load_col st = T.col ~w:10 "max load" (T.Load (fun r -> max_load (st r)))
let audit st = T.col ~w:6 "audit" (T.Audit (fun r -> audit_violations (st r)))

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

(* ---- Packet-level ablations ----------------------------------------- *)

let cache_ablation (s : Pktsim.stats) =
  T.[ line "=== Ablation: flow cache vs multi-field lookups (Sec. III.D) ===";
      fields
        [ col "packets injected:" (Int (fun s -> s.Pktsim.injected_packets));
          col "multi-field lookups:" (Int (fun s -> s.Pktsim.multi_field_lookups));
          col "cache hits:" (Int (fun s -> s.Pktsim.cache_hits));
          col "negative hits:" (Int (fun s -> s.Pktsim.cache_negative_hits));
          col "lookup fraction:" (Float (4, 4, lookup_fraction)) ]
        s ]

let cache_size_ablation points =
  let st (p : cache_size_point) = p.stats in
  let capacity (p : cache_size_point) =
    Option.fold ~none:"unbounded" ~some:string_of_int p.capacity
  in
  T.[ line "=== Ablation: flow-cache capacity vs multi-field lookups ===";
      grid
        [ col ~w:10 "capacity" (Str capacity);
          col ~w:18 "lookup fraction" (Float (4, 4, fun p -> lookup_fraction (st p)));
          stat 12 "evictions" st (fun s -> s.Pktsim.cache_evictions) ]
        points ]

let frag_ablation (f : frag_report) =
  let labels g = T.Int (fun f -> g f.with_labels) in
  T.[ line "=== Ablation: fragmentation, IP-over-IP vs label switching (Sec. III.E) ===";
      fields
        [ col "extra fragments, IP-over-IP only:"
            (Int (fun f -> f.ip_over_ip.Pktsim.fragments_created));
          col "extra fragments, with label switching:"
            (labels (fun s -> s.Pktsim.fragments_created));
          col "tunneled legs:" (labels (fun s -> s.Pktsim.tunneled_packets));
          col "label-switched legs:" (labels (fun s -> s.Pktsim.label_switched_packets)) ]
        f ]

let engine_events events hops =
  T.line "engine events: %d processed, %d router hops fast-forwarded" events hops

let latency_ablation (l : latency_report) =
  let latency head f = T.col ~w:10 head (T.Float (2, 2, fun (_, s) -> f s)) in
  let runs = [ l.enforced; l.plain ] in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 runs in
  T.[ line "=== Ablation: end-to-end latency with/without enforcement (campus, LB) ===";
      grid
        [ col ~w:12 "" (Str fst);
          latency "mean" (fun s -> s.Pktsim.latency_mean);
          latency "p50" (fun s -> s.Pktsim.latency_p50);
          latency "p99" (fun s -> s.Pktsim.latency_p99) ]
        [ ("enforced", l.enforced); ("plain", l.plain) ];
      line "mean enforcement overhead: %.2fx"
        (if l.plain.Pktsim.latency_mean > 0.0 then
           l.enforced.Pktsim.latency_mean /. l.plain.Pktsim.latency_mean
         else 1.0);
      engine_events (total (fun s -> s.Pktsim.events_processed))
        (total (fun s -> s.Pktsim.router_hops)) ]

let queue_ablation (q : queue_report) =
  let metric w head f = T.col ~w head (T.Float (2, 2, f)) in
  T.[ line "=== Ablation: middlebox queueing, HP vs LB latency (campus) ===";
      line "service rate: %.1f pkt/unit per middlebox" q.service_rate;
      grid
        [ col ~w:6 "" (Str (fun (name, _, _, _) -> name));
          metric 12 "util(max)" (fun (_, u, _, _) -> u);
          metric 14 "latency mean" (fun (_, _, m, _) -> m);
          metric 14 "latency p99" (fun (_, _, _, p) -> p) ]
        [ ("HP", q.hp_util_max, q.hp_latency_mean, q.hp_latency_p99);
          ("LB", q.lb_util_max, q.lb_latency_mean, q.lb_latency_p99) ];
      engine_events q.events_processed q.router_hops ]

(* ---- ABL-CHAOS ------------------------------------------------------ *)

let chaos_columns (c : chaos_report) =
  let st (r : chaos_row) = r.stats in
  (* Time from the crash to the last violation: how long the system
     bled before failover absorbed the fault. *)
  let recovery r =
    let s = st r in
    if s.Pktsim.policy_violations = 0 then 0.0
    else Stdlib.max 0.0 (s.Pktsim.last_violation_time -. c.chaos_crash_at)
  in
  let max_surviving r =
    List.fold_left (fun acc id -> Stdlib.max acc (st r).Pktsim.loads.(id)) 0.0
      c.chaos_survivors
  in
  let detect r =
    if Float.is_integer r.chaos_delay then Printf.sprintf "%.0f" r.chaos_delay else "never"
  in
  T.[ col ~w:(-16) "mode" (Str (fun r -> r.chaos_mode)); col ~w:7 "detect" (Str detect) ]
  @ packets st
  @ [ stat 8 "dropped" st (fun s -> s.Pktsim.dropped_packets);
      stat 10 "violating" st (fun s -> s.Pktsim.policy_violations);
      stat 8 "retries" st (fun s -> s.Pktsim.control_retries);
      T.col ~w:9 "recovery" (T.Float (1, 3, recovery));
      T.col ~w:14 "max surviving" (T.Load max_surviving);
      audit st ]

let chaos (c : chaos_report) =
  T.line "=== ABL-CHAOS: in-run faults, detection-delay sweep (campus) ==="
  :: T.line "crash: mbox%d (%s) at t=%.1f, never restored" c.chaos_victim
       (nf_name c.chaos_victim_nf) c.chaos_crash_at
  :: (match c.chaos_link with
     | Some (u, v) ->
       [ T.line "link: %d-%d fails at t=%.1f, restored at t=%.1f" u v c.chaos_link_fail_at
           c.chaos_link_restore_at ]
     | None -> [])
  @ [ T.line "control-packet loss: %s (masked by retransmission)" (pct c.chaos_control_loss);
      T.grid (chaos_columns c) c.chaos_rows ]

(* ---- ABL-LIVE ------------------------------------------------------- *)

let live_columns =
  let st (r : live_row) = r.stats in
  T.[ text ~w:8 "loss" (Str (fun r -> pct r.live_loss));
      csv "loss" (Float (2, 2, fun r -> r.live_loss)) ]
  @ packets st
  @ [ stat 10 "violating" st (fun s -> s.Pktsim.policy_violations);
      stat 9 "versions" st (fun s -> s.Pktsim.final_config_version);
      stat 7 "pushes" st (fun s -> s.Pktsim.config_pushes);
      stat 6 "acks" st (fun s -> s.Pktsim.config_acks);
      stat 5 "lost" st (fun s -> s.Pktsim.config_lost);
      stat 9 "degraded" st (fun s -> s.Pktsim.config_degraded);
      stat 6 "stale" st (fun s -> s.Pktsim.stale_devices);
      T.csv "bytes" (T.Int (fun r -> (st r).Pktsim.config_bytes));
      max_load_col st;
      audit st ]

let device_columns =
  T.[ col ~w:(-10) "device" (Str (fun d -> d.dev_name));
      col ~w:8 "version" (Int (fun d -> d.dev_version));
      col ~w:5 "lag" (Int (fun d -> d.dev_lag));
      col ~w:8 "retries" (Int (fun d -> d.dev_retries));
      col ~w:5 "lost" (Int (fun d -> d.dev_lost)) ]

let live (l : live_report) =
  T.[ line "=== ABL-LIVE: live reconfiguration, control-loss sweep (campus) ===";
      line "epoch %.1f, reconcile %.1f; stale HP max %s, clairvoyant LB max %s" l.live_epoch
        l.live_reconcile (millions l.live_stale_max) (millions l.live_clairvoyant_max);
      grid live_columns l.live_rows;
      blank;
      line "per device (lossiest row):";
      grid device_columns l.live_devices ]

let live_csv (l : live_report) = T.to_csv live_columns l.live_rows
let live_devices_csv (l : live_report) = T.to_csv device_columns l.live_devices

(* ---- ABL-QUORUM ----------------------------------------------------- *)

let quorum_columns =
  let st (r : quorum_row) = r.stats in
  let replicas r =
    String.concat "/"
      (List.map string_of_int (Array.to_list (st r).Pktsim.replica_versions))
  in
  T.[ col ~w:(-13) "scenario" (Str (fun r -> r.qr_scenario));
      text ~w:5 "loss" (Str (fun r -> pct r.qr_loss));
      csv "loss" (Float (2, 2, fun r -> r.qr_loss)) ]
  @ packets st
  @ [ T.csv "violating" (T.Int (fun r -> (st r).Pktsim.policy_violations));
      stat 9 "versions" st (fun s -> s.Pktsim.final_config_version);
      stat 7 "rounds" st (fun s -> s.Pktsim.quorum_rounds);
      stat 8 "commits" st (fun s -> s.Pktsim.quorum_commits);
      stat 7 "aborts" st (fun s -> s.Pktsim.quorum_aborts);
      stat 6 "msgs" st (fun s -> s.Pktsim.quorum_msgs);
      stat 6 "lost" st (fun s -> s.Pktsim.quorum_lost);
      stat ~csv:"elections" 6 "elect" st (fun s -> s.Pktsim.leader_changes);
      stat 9 "degraded" st (fun s -> s.Pktsim.config_degraded);
      stat 6 "stale" st (fun s -> s.Pktsim.stale_devices);
      (* Versions that reached the staged window without a quorum
         commit — the headline safety number; always 0. *)
      stat ~csv:"uncommitted" 6 "uncomm" st (fun s ->
          s.Pktsim.reoptimizations - s.Pktsim.quorum_commits);
      T.col ~csv:"replica_versions" ~w:12 "replicas" (T.Str replicas);
      audit st ]

let quorum (q : quorum_report) =
  T.[ line "=== ABL-QUORUM: replicated controller under chaos (campus) ===";
      line "%d replicas (majority quorum), leader at router %d; epoch %.1f, reconcile %.1f"
        q.q_replicas q.q_leader_router q.q_epoch q.q_reconcile;
      line "leader crash at %.1f; partition %.1f-%.1f; probe %d events" q.q_crash_at
        q.q_partition_at q.q_heal_at q.q_probe_events;
      grid quorum_columns q.q_rows ]

let quorum_csv (q : quorum_report) = T.to_csv quorum_columns q.q_rows

(* ---- ABL-CORRUPT ---------------------------------------------------- *)

let corrupt_columns =
  let st (r : corrupt_row) = r.stats in
  let window ~csv head f = T.col ~csv ~w:8 head (T.Float (2, 3, fun r -> f (st r))) in
  let sweep none fmt r = Option.fold ~none ~some:(Printf.sprintf fmt) r.cr_sweep in
  T.[ col ~w:(-4) "plan" (Str (fun r -> r.cr_strategy));
      col ~w:5 "rate" (Float (2, 3, fun r -> r.cr_rate));
      text ~w:6 "sweep" (Str (sweep "off" "%.1f"));
      csv "sweep_period" (Str (sweep "" "%.3f")) ]
  @ packets st
  @ [ stat ~csv:"corruptions" 7 "corrupt" st (fun s -> s.Pktsim.corruptions_injected);
      stat ~csv:"manifested" 6 "manif" st (fun s -> s.Pktsim.corruptions_manifested);
      stat ~csv:"detected" 6 "detect" st (fun s -> s.Pktsim.corruptions_detected);
      stat ~csv:"repaired" 6 "repair" st (fun s -> s.Pktsim.corruptions_repaired);
      stat 9 "violating" st (fun s -> s.Pktsim.policy_violations);
      window ~csv:"window_mean" "win-mean" (fun s -> s.Pktsim.repair_window_mean);
      window ~csv:"window_max" "win-max" (fun s -> s.Pktsim.repair_window_max);
      T.csv "sweep_rounds" (T.Int (fun r -> (st r).Pktsim.sweep_rounds));
      T.csv "sweep_msgs" (T.Int (fun r -> (st r).Pktsim.sweep_msgs));
      stat ~csv:"sweep_bytes" 7 "swbytes" st (fun s -> s.Pktsim.sweep_bytes);
      audit st ]

let corrupt (c : corrupt_report) =
  T.[ line "=== ABL-CORRUPT: silent corruption vs anti-entropy repair (campus) ===";
      line "horizon %.1f; epoch %.1f, reconcile %.1f; sweep period %.1f when on; probe %d events"
        c.c_horizon c.c_epoch c.c_reconcile c.c_default_sweep c.c_probe_events;
      grid corrupt_columns c.c_rows ]

let corrupt_csv (c : corrupt_report) = T.to_csv corrupt_columns c.c_rows

(* ---- ABL-REOPT ------------------------------------------------------ *)

let reopt_columns =
  let st (r : reopt_row) = r.stats in
  T.[ col ~w:(-8) "scenario" (Str (fun r -> r.rp_scenario));
      col ~w:8 "routers" (Int (fun r -> r.rp_routers));
      col ~w:5 "mode" (Str (fun r -> if r.rp_warm then "warm" else "cold")) ]
  @ [ stat 7 "reopts" st (fun s -> s.Pktsim.reoptimizations);
      (* [pivots] counts phase-2 pivots; [phase1] the phase-1 and
         drive-out pivots on top of them. *)
      stat 7 "pivots" st (fun s -> s.Pktsim.reopt_pivots);
      stat 7 "phase1" st (fun s -> s.Pktsim.reopt_phase1_pivots);
      stat ~csv:"warm_used" 5 "warm" st (fun s -> s.Pktsim.reopt_warm_used);
      stat 9 "fallback" st (fun s -> s.Pktsim.reopt_fallback) ]
  @ packets st
  @ [ stat 10 "violating" st (fun s -> s.Pktsim.policy_violations);
      stat 9 "versions" st (fun s -> s.Pktsim.final_config_version);
      stat 9 "degraded" st (fun s -> s.Pktsim.config_degraded);
      max_load_col st;
      audit st ]

(* Replay steps as (scenario, 1-based step, step). *)
let step_columns =
  let failed (_, _, s) = String.concat "+" (List.map string_of_int s.rs_failed) in
  let flag ?(no = "no") ~w head csv_head f =
    T.[ text ~w head (Str (fun (_, _, s) -> if f s then "yes" else no));
        csv csv_head (Str (fun (_, _, s) -> string_of_bool (f s))) ]
  in
  T.[ col ~w:(-8) "scenario" (Str (fun (name, _, _) -> name));
      col ~w:4 "step" (Int (fun (_, i, _) -> i));
      text ~w:(-10) "failed" (Str (fun r -> match failed r with "" -> "-" | l -> l));
      csv "failed" (Str failed);
      col ~w:11 "cold pivots" (Int (fun (_, _, s) -> s.rs_cold_pivots));
      col ~w:11 "warm pivots" (Int (fun (_, _, s) -> s.rs_warm_pivots));
      csv "cold_lambda" (Float (6, 6, fun (_, _, s) -> s.rs_cold_lambda));
      csv "warm_lambda" (Float (6, 6, fun (_, _, s) -> s.rs_warm_lambda)) ]
  @ flag ~w:5 "warm" "warm_used" (fun s -> s.rs_warm_used)
  @ flag ~w:9 "fallback" "fallback" (fun s -> s.rs_fallback)
  @ flag ~no:"NO" ~w:6 "agree" "agree" (fun s -> s.rs_agree)

let steps (r : reopt_report) =
  List.concat_map
    (fun (name, steps) -> List.mapi (fun i s -> (name, i + 1, s)) steps)
    r.rp_replays

let reopt (r : reopt_report) =
  let info i =
    let v1, v2 = i.ri_victims in
    T.line "%s: %d routers; epoch %.1f, reconcile %.1f; churn mbox%d %.1f-%.1f, mbox%d %.1f-%.1f"
      i.ri_name i.ri_routers i.ri_epoch i.ri_reconcile v1 i.ri_crash1 i.ri_recover1 v2
      i.ri_crash2 i.ri_recover2
  in
  T.line "=== ABL-REOPT: warm-started re-optimization vs cold re-solve ==="
  :: T.line "control-packet loss: %s (masked by retransmission)" (pct r.rp_control_loss)
  :: List.map info r.rp_infos
  @ T.[ grid reopt_columns r.rp_rows;
        blank;
        line "controller-level churn replay (per re-optimization):";
        grid step_columns (steps r);
        line "warm/cold objective agreement: %d/%d replay steps" r.rp_agree r.rp_total ]

let reopt_csv (r : reopt_report) = T.to_csv reopt_columns r.rp_rows
let reopt_steps_csv (r : reopt_report) = T.to_csv step_columns (steps r)
