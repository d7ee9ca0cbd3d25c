(* Smoke tests for the report renderers: every printer must produce
   non-empty, well-formed output for real experiment results, and the
   CSV exports must be structurally valid. *)

let render pp v =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let text doc = render Sim.Table.pp_doc doc

let small_figure () =
  Sim.Experiment.run_figure Sim.Experiment.Campus ~flow_counts:[ 2_000 ] ()

let test_figure_rendering () =
  let fig = small_figure () in
  let out = text (Sim.Report.figure fig) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [ "campus"; "-- FW --"; "-- IDS --"; "-- WP --"; "-- TM --"; "HP"; "Rand"; "LB" ]

let test_figure_csv () =
  let fig = small_figure () in
  let csv = Sim.Report.figure_csv fig in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* Header plus one row per (4 types x 1 volume point). *)
  Alcotest.(check int) "row count" 5 (List.length lines);
  Alcotest.(check string) "header" "nf,flows,packets,hp,rand,lb" (List.hd lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "six columns" 6
        (List.length (String.split_on_char ',' line)))
    lines

let test_table3_rendering_and_csv () =
  let rows = (Sim.Experiment.run_table3 ~flows:2_000 ()).Sim.Experiment.t3_rows in
  let out = text (Sim.Report.table3 rows) in
  Alcotest.(check bool) "mentions max" true (contains out "max.");
  Alcotest.(check bool) "mentions min" true (contains out "min.");
  let csv = Sim.Report.table3_csv rows in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 4 types" 5 (List.length lines)

let test_millions () =
  Alcotest.(check string) "millions" "1.66M" (Sim.Table.millions 1_660_000.0);
  Alcotest.(check string) "thousands" "12.7k" (Sim.Table.millions 12_737.0);
  Alcotest.(check string) "units" "42" (Sim.Table.millions 42.0)

let test_ablation_printers () =
  (* Tiny runs through every remaining printer. *)
  let cache = Sim.Experiment.ablation_cache ~flows:100 () in
  Alcotest.(check bool) "cache report" true
    (contains (text (Sim.Report.cache_ablation cache)) "lookup fraction");
  let frag = Sim.Experiment.ablation_fragmentation ~flows:100 () in
  Alcotest.(check bool) "frag report" true
    (contains (text (Sim.Report.frag_ablation frag)) "label switching");
  let lat = Sim.Experiment.ablation_latency ~flows:100 () in
  Alcotest.(check bool) "latency report" true
    (contains (text (Sim.Report.latency_ablation lat)) "overhead")

(* ---- Pinned bytes: exact text and CSV of the packet-level reports ---- *)

(* Synthetic reports built from synthetic [Pktsim.stats]: every field a
   report reads gets a distinct value derived from [i], so a shifted
   column, a wrong precision or a swapped getter changes the bytes.
   The template run only supplies the fields no report reads. *)
let stats_template =
  lazy
    (let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
     let workload = Sim.Workload.generate ~deployment ~seed:17 ~flows:20 () in
     let controller =
       match
         Sdm.Controller.configure deployment ~rules:workload.Sim.Workload.rules
           Sdm.Controller.Hot_potato
       with
       | Ok c -> c
       | Error e -> failwith e
     in
     Sim.Pktsim.run ~controller ~workload ())

let audit_report n =
  {
    Audit.Checker.events = 0;
    packets = 0;
    flows = 0;
    delivered = 0;
    dropped = 0;
    wp_served = 0;
    decisions = 0;
    versions = 0;
    feasibility_groups = 0;
    violations = n;
    sample = [];
  }

let mk_stats i ~audit =
  let f = float_of_int i in
  {
    (Lazy.force stats_template) with
    Sim.Pktsim.loads = [| 10.0; 20.0 *. f; 1500.0 *. f; 2.5e6 +. f |];
    injected_packets = 1000 + i;
    delivered_packets = 990 + i;
    dropped_packets = i;
    policy_violations = 3 * (i mod 2);
    last_violation_time = 30.5 +. f;
    control_retries = 4 * i;
    events_processed = 5000 + i;
    config_pushes = 20 + i;
    config_acks = 19 + i;
    config_lost = i;
    config_bytes = 12345 * i;
    reoptimizations = 4 + i;
    config_degraded = i mod 2;
    final_config_version = 4 + i;
    stale_devices = i;
    quorum_rounds = 6 + i;
    quorum_commits = 4 + i;
    quorum_aborts = 2;
    quorum_msgs = 40 + i;
    quorum_lost = i;
    leader_changes = 1;
    replica_versions = [| 4 + i; 4 + i; 3 |];
    corruptions_injected = 7 + i;
    corruptions_manifested = 3;
    corruptions_detected = 2 + i;
    corruptions_repaired = 5;
    sweep_rounds = 11;
    sweep_msgs = 22;
    sweep_bytes = 3300 + i;
    repair_window_mean = 1.234 *. f;
    repair_window_max = 9.875;
    reopt_pivots = 120 + i;
    reopt_phase1_pivots = 30;
    reopt_warm_used = i;
    reopt_fallback = 1;
    audit_report = Option.map audit_report audit;
  }

(* Row builders: the only part of this block that follows the row
   types; the expected bytes below do not. *)
let pinned_chaos () =
  let row ~mode ~delay stats =
    { Sim.Experiment.chaos_mode = mode; chaos_delay = delay; stats }
  in
  {
    Sim.Experiment.chaos_victim = 3;
    chaos_victim_nf = Policy.Action.IDS;
    chaos_survivors = [ 1; 2 ];
    chaos_crash_at = 25.0;
    chaos_link = Some (0, 2);
    chaos_link_fail_at = 45.0;
    chaos_link_restore_at = 65.0;
    chaos_control_loss = 0.02;
    chaos_probe_events = 9_000;
    chaos_rows =
      [
        row ~mode:"HP+failover" ~delay:2.0 (mk_stats 1 ~audit:None);
        row ~mode:"LB+failover" ~delay:10.0 (mk_stats 2 ~audit:(Some 0));
        row ~mode:"LB, no failover" ~delay:infinity (mk_stats 3 ~audit:(Some 7));
      ];
  }

let pinned_live () =
  let row loss stats = { Sim.Experiment.live_loss = loss; stats } in
  {
    Sim.Experiment.live_epoch = 10.0;
    live_reconcile = 2.5;
    live_stale_max = 1000.0;
    live_clairvoyant_max = 4.0e6;
    live_probe_events = 12_000;
    live_rows =
      [ row 0.0 (mk_stats 1 ~audit:None); row 0.10 (mk_stats 2 ~audit:(Some 3)) ];
    live_devices =
      [
        {
          Sim.Experiment.dev_name = "proxy0";
          dev_version = 4;
          dev_lag = 0;
          dev_retries = 1;
          dev_lost = 2;
        };
        {
          Sim.Experiment.dev_name = "mbox7";
          dev_version = 3;
          dev_lag = 1;
          dev_retries = 5;
          dev_lost = 4;
        };
      ];
  }

let pinned_quorum () =
  let row scenario loss stats =
    { Sim.Experiment.qr_scenario = scenario; qr_loss = loss; stats }
  in
  {
    Sim.Experiment.q_replicas = 3;
    q_epoch = 20.0;
    q_reconcile = 5.0;
    q_crash_at = 30.0;
    q_partition_at = 35.0;
    q_heal_at = 70.0;
    q_leader_router = 6;
    q_probe_events = 8_000;
    q_rows =
      [
        row "leader crash" 0.02 (mk_stats 1 ~audit:None);
        row "quorum loss" 0.45 (mk_stats 2 ~audit:(Some 0));
      ];
  }

let pinned_corrupt () =
  let row strategy rate sweep stats =
    { Sim.Experiment.cr_strategy = strategy; cr_rate = rate; cr_sweep = sweep; stats }
  in
  {
    Sim.Experiment.c_horizon = 120.0;
    c_epoch = 24.0;
    c_reconcile = 6.0;
    c_default_sweep = 10.0;
    c_probe_events = 7_000;
    c_rows =
      [
        row "HP" 0.1 None (mk_stats 1 ~audit:None);
        row "LB" 0.4 (Some 12.5) (mk_stats 2 ~audit:(Some 2));
      ];
  }

let pinned_reopt () =
  let row scenario routers warm stats =
    { Sim.Experiment.rp_scenario = scenario; rp_routers = routers; rp_warm = warm; stats }
  in
  let step failed cold warm agree =
    {
      Sim.Experiment.rs_failed = failed;
      rs_cold_pivots = cold;
      rs_warm_pivots = warm;
      rs_cold_lambda = 1234.5678905;
      rs_warm_lambda = 1234.567891;
      rs_warm_used = warm = 0;
      rs_fallback = warm <> 0;
      rs_agree = agree;
    }
  in
  {
    Sim.Experiment.rp_control_loss = 0.02;
    rp_infos =
      [
        {
          Sim.Experiment.ri_name = "campus";
          ri_routers = 23;
          ri_epoch = 12.0;
          ri_reconcile = 3.0;
          ri_victims = (4, 9);
          ri_crash1 = 18.0;
          ri_recover1 = 42.0;
          ri_crash2 = 54.0;
          ri_recover2 = 78.0;
          ri_probe_events = 6_000;
        };
      ];
    rp_rows =
      [
        row "campus" 23 false (mk_stats 1 ~audit:None);
        row "campus" 23 true (mk_stats 2 ~audit:(Some 0));
      ];
    rp_replays = [ ("campus", [ step [] 40 0 true; step [ 4; 9 ] 35 12 false ]) ];
    rp_agree = 1;
    rp_total = 2;
  }

(* Renderers under test, one per pinned artifact. *)
let chaos_text c = text (Sim.Report.chaos c)
let live_text l = text (Sim.Report.live l)
let quorum_text q = text (Sim.Report.quorum q)
let corrupt_text c = text (Sim.Report.corrupt c)
let reopt_text r = text (Sim.Report.reopt r)

let pinned label expected actual = Alcotest.(check string) label expected actual

let test_pinned_chaos () =
  pinned "chaos text"
    {|=== ABL-CHAOS: in-run faults, detection-delay sweep (campus) ===
crash: mbox3 (IDS) at t=25.0, never restored
link: 0-2 fails at t=45.0, restored at t=65.0
control-packet loss: 2% (masked by retransmission)
mode              detect  injected  delivered  dropped  violating  retries  recovery  max surviving  audit
HP+failover            2      1001        991        1          3        4       6.5           1.5k      -
LB+failover           10      1002        992        2          0        8       0.0           3.0k      0
LB, no failover    never      1003        993        3          3       12       8.5           4.5k      7
|}
    (chaos_text (pinned_chaos ()))

let test_pinned_live () =
  let l = pinned_live () in
  pinned "live text"
    {|=== ABL-LIVE: live reconfiguration, control-loss sweep (campus) ===
epoch 10.0, reconcile 2.5; stale HP max 1.0k, clairvoyant LB max 4.00M
    loss  injected  delivered  violating  versions  pushes   acks  lost  degraded  stale   max load  audit
      0%      1001        991          3         5      21     20     1         1      1      2.50M      -
     10%      1002        992          0         6      22     21     2         0      2      2.50M      3

per device (lossiest row):
device      version   lag  retries  lost
proxy0            4     0        1     2
mbox7             3     1        5     4
|}
    (live_text l);
  pinned "live CSV"
    {|loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit
0.00,1001,991,3,5,21,20,1,1,1,12345,2500001,
0.10,1002,992,0,6,22,21,2,0,2,24690,2500002,3
|}
    (Sim.Report.live_csv l);
  pinned "live devices CSV"
    {|device,version,lag,retries,lost
proxy0,4,0,1,2
mbox7,3,1,5,4
|}
    (Sim.Report.live_devices_csv l)

let test_pinned_quorum () =
  let q = pinned_quorum () in
  pinned "quorum text"
    {|=== ABL-QUORUM: replicated controller under chaos (campus) ===
3 replicas (majority quorum), leader at router 6; epoch 20.0, reconcile 5.0
leader crash at 30.0; partition 35.0-70.0; probe 8000 events
scenario       loss  injected  delivered  versions  rounds  commits  aborts   msgs   lost  elect  degraded  stale uncomm     replicas  audit
leader crash     2%      1001        991         5       7        5       2     41      1      1         1      1      0        5/5/3      -
quorum loss     45%      1002        992         6       8        6       2     42      2      1         0      2      0        6/6/3      0
|}
    (quorum_text q);
  pinned "quorum CSV"
    {|scenario,loss,injected,delivered,violating,versions,rounds,commits,aborts,msgs,lost,elections,degraded,stale,uncommitted,replica_versions,audit
leader crash,0.02,1001,991,3,5,7,5,2,41,1,1,1,1,0,5/5/3,
quorum loss,0.45,1002,992,0,6,8,6,2,42,2,1,0,2,0,6/6/3,0
|}
    (Sim.Report.quorum_csv q)

let test_pinned_corrupt () =
  let c = pinned_corrupt () in
  pinned "corrupt text"
    {|=== ABL-CORRUPT: silent corruption vs anti-entropy repair (campus) ===
horizon 120.0; epoch 24.0, reconcile 6.0; sweep period 10.0 when on; probe 7000 events
plan  rate  sweep  injected  delivered corrupt  manif detect repair violating win-mean  win-max swbytes  audit
HP    0.10    off      1001        991       8      3      3      5         3     1.23     9.88    3301      -
LB    0.40   12.5      1002        992       9      3      4      5         0     2.47     9.88    3302      2
|}
    (corrupt_text c);
  pinned "corrupt CSV"
    {|plan,rate,sweep_period,injected,delivered,corruptions,manifested,detected,repaired,violating,window_mean,window_max,sweep_rounds,sweep_msgs,sweep_bytes,audit
HP,0.100,,1001,991,8,3,3,5,3,1.234,9.875,11,22,3301,
LB,0.400,12.500,1002,992,9,3,4,5,0,2.468,9.875,11,22,3302,2
|}
    (Sim.Report.corrupt_csv c)

let test_pinned_reopt () =
  let r = pinned_reopt () in
  pinned "reopt text"
    {|=== ABL-REOPT: warm-started re-optimization vs cold re-solve ===
control-packet loss: 2% (masked by retransmission)
campus: 23 routers; epoch 12.0, reconcile 3.0; churn mbox4 18.0-42.0, mbox9 54.0-78.0
scenario  routers  mode  reopts  pivots  phase1  warm  fallback  injected  delivered  violating  versions  degraded   max load  audit
campus         23  cold       5     121      30     1         1      1001        991          3         5         1      2.50M      -
campus         23  warm       6     122      30     2         1      1002        992          0         6         0      2.50M      0

controller-level churn replay (per re-optimization):
scenario step failed     cold pivots warm pivots  warm  fallback  agree
campus      1 -                   40           0   yes        no    yes
campus      2 4+9                 35          12    no       yes     NO
warm/cold objective agreement: 1/2 replay steps
|}
    (reopt_text r);
  pinned "reopt CSV"
    {|scenario,routers,mode,reopts,pivots,phase1,warm_used,fallback,injected,delivered,violating,versions,degraded,max_load,audit
campus,23,cold,5,121,30,1,1,1001,991,3,5,1,2500001,
campus,23,warm,6,122,30,2,1,1002,992,0,6,0,2500002,0
|}
    (Sim.Report.reopt_csv r);
  pinned "reopt steps CSV"
    {|scenario,step,failed,cold_pivots,warm_pivots,cold_lambda,warm_lambda,warm_used,fallback,agree
campus,1,,40,0,1234.567890,1234.567891,true,false,true
campus,2,4+9,35,12,1234.567890,1234.567891,false,true,false
|}
    (Sim.Report.reopt_steps_csv r)

(* Hand-built reports keep the CSV emitter tests fast and let them pin
   exact cell values, including both states of the audit column. *)
let synthetic_live_report () =
  let row ~loss ~audit =
    {
      Sim.Experiment.live_loss = loss;
      stats =
        {
          (Lazy.force stats_template) with
          Sim.Pktsim.loads = [| 55.0 |];
          injected_packets = 100;
          delivered_packets = 99;
          policy_violations = 0;
          final_config_version = 4;
          config_pushes = 20;
          config_acks = 19;
          config_lost = 1;
          config_degraded = 0;
          stale_devices = 2;
          config_bytes = 1234;
          events_processed = 5000;
          audit_report = Option.map audit_report audit;
        };
    }
  in
  {
    Sim.Experiment.live_epoch = 10.0;
    live_reconcile = 2.5;
    live_stale_max = 1000.0;
    live_clairvoyant_max = 400.0;
    live_probe_events = 12_000;
    live_rows = [ row ~loss:0.0 ~audit:None; row ~loss:0.10 ~audit:(Some 3) ];
    live_devices =
      [
        {
          Sim.Experiment.dev_name = "proxy0";
          dev_version = 4;
          dev_lag = 0;
          dev_retries = 1;
          dev_lost = 2;
        };
        {
          Sim.Experiment.dev_name = "mbox7";
          dev_version = 3;
          dev_lag = 1;
          dev_retries = 5;
          dev_lost = 4;
        };
      ];
  }

let test_live_csv () =
  let csv = Sim.Report.live_csv (synthetic_live_report ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header"
    "loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit"
    (List.hd lines);
  let cells line = String.split_on_char ',' line in
  List.iter
    (fun line ->
      Alcotest.(check int) "column count" 13 (List.length (cells line)))
    lines;
  (match lines with
  | [ _; unaudited; audited ] ->
    let u = cells unaudited and a = cells audited in
    Alcotest.(check string) "loss cell" "0.00" (List.hd u);
    Alcotest.(check string) "audit empty when off" "" (List.nth u 12);
    Alcotest.(check string) "loss cell audited" "0.10" (List.hd a);
    Alcotest.(check string) "audit count when on" "3" (List.nth a 12);
    Alcotest.(check string) "bytes round-trip" "1234" (List.nth a 10);
    (* Every numeric cell parses back. *)
    List.iteri
      (fun i cell ->
        if i <> 12 then
          Alcotest.(check bool)
            (Printf.sprintf "cell %d numeric" i)
            true
            (float_of_string_opt cell <> None))
      u
  | _ -> Alcotest.fail "unexpected line structure")

let test_live_devices_csv () =
  let csv = Sim.Report.live_devices_csv (synthetic_live_report ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 2 devices" 3 (List.length lines);
  Alcotest.(check string) "header" "device,version,lag,retries,lost"
    (List.hd lines);
  Alcotest.(check string) "proxy row" "proxy0,4,0,1,2" (List.nth lines 1);
  Alcotest.(check string) "mbox row" "mbox7,3,1,5,4" (List.nth lines 2)

let test_live_and_chaos_printers_audit_column () =
  let out = text (Sim.Report.live (synthetic_live_report ())) in
  Alcotest.(check bool) "live header has audit" true (contains out "audit");
  Alcotest.(check bool) "live shows dash when off" true (contains out " -");
  let chaos_row ~audit =
    {
      Sim.Experiment.chaos_mode = "LB+failover";
      chaos_delay = 2.0;
      stats =
        {
          (Lazy.force stats_template) with
          Sim.Pktsim.injected_packets = 100;
          delivered_packets = 99;
          dropped_packets = 1;
          policy_violations = 1;
          control_retries = 0;
          last_violation_time = 26.5;
          audit_report = Option.map audit_report audit;
        };
    }
  in
  let report =
    {
      Sim.Experiment.chaos_victim = 11;
      chaos_victim_nf = Policy.Action.IDS;
      chaos_survivors = [ 0 ];
      chaos_crash_at = 25.0;
      chaos_link = Some (0, 2);
      chaos_link_fail_at = 45.0;
      chaos_link_restore_at = 65.0;
      chaos_control_loss = 0.02;
      chaos_probe_events = 9_000;
      chaos_rows = [ chaos_row ~audit:None; chaos_row ~audit:(Some 7) ];
    }
  in
  let out = text (Sim.Report.chaos report) in
  Alcotest.(check bool) "chaos header has audit" true (contains out "audit");
  Alcotest.(check bool) "chaos shows dash when off" true (contains out " -");
  Alcotest.(check bool) "chaos shows the count when on" true (contains out "7")


let suite =
  [
    Alcotest.test_case "figure rendering" `Slow test_figure_rendering;
    Alcotest.test_case "figure CSV" `Slow test_figure_csv;
    Alcotest.test_case "table3 rendering and CSV" `Slow test_table3_rendering_and_csv;
    Alcotest.test_case "millions formatting" `Quick test_millions;
    Alcotest.test_case "ablation printers" `Slow test_ablation_printers;
    Alcotest.test_case "live CSV cells" `Quick test_live_csv;
    Alcotest.test_case "live devices CSV" `Quick test_live_devices_csv;
    Alcotest.test_case "audit column in printers" `Quick
      test_live_and_chaos_printers_audit_column;
    Alcotest.test_case "pinned chaos bytes" `Quick test_pinned_chaos;
    Alcotest.test_case "pinned live bytes" `Quick test_pinned_live;
    Alcotest.test_case "pinned quorum bytes" `Quick test_pinned_quorum;
    Alcotest.test_case "pinned corrupt bytes" `Quick test_pinned_corrupt;
    Alcotest.test_case "pinned reopt bytes" `Quick test_pinned_reopt;
  ]
