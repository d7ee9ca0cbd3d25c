(* Golden lines: one line per registry entry, in registry order, each
   the entry's ctx followed by key=hex16 tokens over one whole run
   through [Registry.entry.run].  A token is the first 64 bits of an MD5, or
   the value itself for the event and hop counts; floats are hashed by
   their bit pattern, so a one-ulp change moves a token.  Tokens name
   what they pin, so a mismatch names the field that moved, and no
   token depends on how a report record is laid out. *)

type case = {
  name : string;
  flows : int;
  fast : bool;
  audit : bool;
  corrupt_rate : float option;
}

let case ?(fast = false) ?(audit = false) ?corrupt_rate name flows =
  { name; flows; fast; audit; corrupt_rate }

(* The ctx of each line, in registry order: small enough for tier-1,
   and covering every run the earlier whole-report pins covered.  The
   figures sweep their own flow counts: three volume points when
   [fast]. *)
let cases =
  [
    case ~fast:true "fig4" 0;
    case ~fast:true "fig5" 0;
    case "table3" 10_000;
    case "table3-waxman" 5_000;
    case "k" 5_000;
    case "cache" 300;
    case "cachesize" 300;
    case "frag" 300;
    case "fail" 5_000;
    case ~audit:true "chaos" 120;
    case ~audit:true "live" 120;
    case "quorum" 120;
    case ~audit:true ~corrupt_rate:0.3 "corrupt" 120;
    case ~audit:true "reopt" 60;
    case "epoch" 5_000;
    case "sketch" 5_000;
    case "lat" 300;
    case "queue" 300;
    case "lp" 2_000;
    case "config" 2_000;
  ]

let seed = 17
let hash s = String.sub (Digest.to_hex (Digest.string s)) 0 16
let int = string_of_int
let float x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let array f a = String.concat "," (Array.to_list (Array.map f a))

let violation
    { Audit.Checker.invariant; time; detail; trace } =
  String.concat "|"
    ([ Audit.Checker.invariant_name invariant; float time; detail ] @ trace)

let audit_report = function
  | None -> "none"
  | Some
      {
        Audit.Checker.events;
        packets;
        flows;
        delivered;
        dropped;
        wp_served;
        decisions;
        versions;
        feasibility_groups;
        violations;
        sample;
      } ->
    String.concat ","
      (List.map int
         [ events; packets; flows; delivered; dropped; wp_served; decisions; versions;
           feasibility_groups; violations ]
      @ List.map violation sample)

(* Every field of one run, in declaration order.  The pattern is
   closed: a field added to [stats] without a token here fails to
   compile. *)
let fields (s : Sim.Pktsim.stats) =
  let {
    Sim.Pktsim.loads;
    injected_packets;
    delivered_packets;
    dropped_packets;
    control_packets;
    multi_field_lookups;
    cache_hits;
    cache_negative_hits;
    tunneled_packets;
    label_switched_packets;
    fragments_created;
    router_hops;
    sim_time;
    latency_mean;
    latency_p50;
    latency_p99;
    label_misses;
    teardowns;
    wp_cache_served;
    cache_evictions;
    events_scheduled;
    events_processed;
    policy_violations;
    fault_dropped;
    control_retries;
    control_lost;
    last_violation_time;
    config_pushes;
    config_acks;
    config_lost;
    config_bytes;
    reoptimizations;
    config_degraded;
    final_config_version;
    stale_devices;
    entity_control_retries;
    entity_control_lost;
    entity_config_version;
    quorum_rounds;
    quorum_commits;
    quorum_aborts;
    quorum_msgs;
    quorum_lost;
    leader_changes;
    replica_versions;
    corruptions_injected;
    corruptions_manifested;
    corruptions_detected;
    corruptions_repaired;
    sweep_rounds;
    sweep_msgs;
    sweep_lost;
    sweep_bytes;
    repair_window_mean;
    repair_window_max;
    reopt_pivots;
    reopt_phase1_pivots;
    reopt_warm_used;
    reopt_fallback;
    audit_report = report;
  } =
    s
  in
  [
    ("loads", array float loads);
    ("injected_packets", int injected_packets);
    ("delivered_packets", int delivered_packets);
    ("dropped_packets", int dropped_packets);
    ("control_packets", int control_packets);
    ("multi_field_lookups", int multi_field_lookups);
    ("cache_hits", int cache_hits);
    ("cache_negative_hits", int cache_negative_hits);
    ("tunneled_packets", int tunneled_packets);
    ("label_switched_packets", int label_switched_packets);
    ("fragments_created", int fragments_created);
    ("router_hops", int router_hops);
    ("sim_time", float sim_time);
    ("latency_mean", float latency_mean);
    ("latency_p50", float latency_p50);
    ("latency_p99", float latency_p99);
    ("label_misses", int label_misses);
    ("teardowns", int teardowns);
    ("wp_cache_served", int wp_cache_served);
    ("cache_evictions", int cache_evictions);
    ("events_scheduled", int events_scheduled);
    ("events_processed", int events_processed);
    ("policy_violations", int policy_violations);
    ("fault_dropped", int fault_dropped);
    ("control_retries", int control_retries);
    ("control_lost", int control_lost);
    ("last_violation_time", float last_violation_time);
    ("config_pushes", int config_pushes);
    ("config_acks", int config_acks);
    ("config_lost", int config_lost);
    ("config_bytes", int config_bytes);
    ("reoptimizations", int reoptimizations);
    ("config_degraded", int config_degraded);
    ("final_config_version", int final_config_version);
    ("stale_devices", int stale_devices);
    ("entity_control_retries", array int entity_control_retries);
    ("entity_control_lost", array int entity_control_lost);
    ("entity_config_version", array int entity_config_version);
    ("quorum_rounds", int quorum_rounds);
    ("quorum_commits", int quorum_commits);
    ("quorum_aborts", int quorum_aborts);
    ("quorum_msgs", int quorum_msgs);
    ("quorum_lost", int quorum_lost);
    ("leader_changes", int leader_changes);
    ("replica_versions", array int replica_versions);
    ("corruptions_injected", int corruptions_injected);
    ("corruptions_manifested", int corruptions_manifested);
    ("corruptions_detected", int corruptions_detected);
    ("corruptions_repaired", int corruptions_repaired);
    ("sweep_rounds", int sweep_rounds);
    ("sweep_msgs", int sweep_msgs);
    ("sweep_lost", int sweep_lost);
    ("sweep_bytes", int sweep_bytes);
    ("repair_window_mean", float repair_window_mean);
    ("repair_window_max", float repair_window_max);
    ("reopt_pivots", int reopt_pivots);
    ("reopt_phase1_pivots", int reopt_phase1_pivots);
    ("reopt_warm_used", int reopt_warm_used);
    ("reopt_fallback", int reopt_fallback);
    ("audit_report", audit_report report);
  ]

(* Every field of one flow-level run, in declaration order; the
   pattern is closed as in [fields]. *)
let flow_fields (r : Sim.Flowsim.result) =
  let {
    Sim.Flowsim.loads;
    packet_hops;
    direct_packet_hops;
    enforced_flows;
    enforced_packets;
    policy_violations;
    violating_flows;
    events;
  } =
    r
  in
  [
    ("loads", array float loads);
    ("packet_hops", float packet_hops);
    ("direct_packet_hops", float direct_packet_hops);
    ("enforced_flows", int enforced_flows);
    ("enforced_packets", int enforced_packets);
    ("policy_violations", int policy_violations);
    ("violating_flows", int violating_flows);
    ("flow_events", int events);
  ]

(* The LP optimum and the phase-2 and phase-1 pivots of the plan each
   run enforced; "-" for a plan without an LP. *)
let plan_fields (c : Sdm.Controller.t) =
  let lp f = Option.fold ~none:"-" ~some:f c.lp in
  [
    ("plan_lambda", lp (fun l -> float l.Sdm.Lp_formulation.lambda));
    ("plan_pivots", lp (fun l -> int l.Sdm.Lp_formulation.lp_pivots));
    ("plan_phase1", lp (fun l -> int l.Sdm.Lp_formulation.lp_phase1_pivots));
  ]

(* One token per field, folded over every run in order. *)
let fold_tokens fields = function
  | [] -> []
  | first :: _ as runs ->
    let per_run = List.map fields runs in
    List.mapi
      (fun i (key, _) -> (key, hash (String.concat ";" (List.map (fun f -> snd (List.nth f i)) per_run))))
      (fields first)

let flow_tokens runs =
  fold_tokens flow_fields (List.map snd runs) @ fold_tokens plan_fields (List.map fst runs)

(* The controller-level replay ABL-REOPT prints, at full precision. *)
let replay_tokens flows =
  let steps =
    List.concat_map
      (fun s -> Sim.Experiment.reopt_replay s ~flows ~seed ())
      Sim.Experiment.[ Campus; Waxman ]
  in
  let token f = hash (String.concat ";" (List.map f steps)) in
  [
    ( "replay_pivots",
      token (fun (s : Sim.Experiment.reopt_step) ->
          int s.rs_cold_pivots ^ "," ^ int s.rs_warm_pivots) );
    ( "replay_lambda",
      token (fun (s : Sim.Experiment.reopt_step) ->
          float s.rs_cold_lambda ^ "," ^ float s.rs_warm_lambda) );
  ]

let line ?(jobs = Stdx.Domain_pool.default_jobs ()) c =
  let e = Option.get (Sim.Registry.find c.name) in
  let o =
    e.run
      {
        flows = c.flows;
        fast = c.fast;
        seed;
        jobs;
        audit = c.audit;
        corrupt_rate = c.corrupt_rate;
        sweep_period = None;
      }
  in
  let tokens =
    [ ("flows", int c.flows) ]
    @ (if c.fast then [ ("fast", "true") ] else [])
    @ [ ("audit", string_of_bool c.audit) ]
    @ Option.fold ~none:[] ~some:(fun r -> [ ("rate", Printf.sprintf "%g" r) ]) c.corrupt_rate
    @ [
        ("events", Printf.sprintf "%016x" o.events);
        ("hops", Printf.sprintf "%016x" o.hops);
        ("text", hash (Format.asprintf "%a" Sim.Table.pp_doc o.doc));
      ]
    @ List.map (fun (file, body) -> (file, hash body)) o.csvs
    @ fold_tokens fields o.runs
    @ flow_tokens o.flow_runs
    @ if c.name = "reopt" then replay_tokens c.flows else []
  in
  String.concat " " (c.name :: List.map (fun (k, v) -> k ^ "=" ^ v) tokens)

let tokens line =
  match String.split_on_char ' ' line with
  | [] -> ("", [])
  | name :: rest ->
    ( name,
      List.map
        (fun t ->
          match String.index_opt t '=' with
          | Some i -> (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))
          | None -> (t, ""))
        rest )

(* The first token of [expected] that [actual] lacks or disagrees on,
   or the first extra one. *)
let first_difference ~expected ~actual =
  let _, e = tokens expected and _, a = tokens actual in
  let rec go e a =
    match (e, a) with
    | [], [] -> None
    | (k, v) :: e, (k', v') :: a when k = k' && v = v' -> go e a
    | (k, v) :: _, (k', v') :: _ when k = k' -> Some (Printf.sprintf "%s: expected %s, got %s" k v v')
    | (k, _) :: _, _ -> Some (Printf.sprintf "%s: missing or out of order" k)
    | [], (k, _) :: _ -> Some (Printf.sprintf "%s: not in the golden line" k)
  in
  go e a
