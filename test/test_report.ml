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

(* A flow-level experiment's report over its own rows. *)
let report (e : _ Sim.Flowlevel.t) = e.report (Sim.Flowlevel.sweep e.sweeps)

let small_figure () =
  report
    (Sim.Flowlevel.figure Sim.Experiment.Campus ~flow_counts:[ 2_000 ] ~seed:17 ~jobs:1
       ~file:"fig4.csv" ())

let test_figure_rendering () =
  let out = text (fst (small_figure ())) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [ "campus"; "-- FW --"; "-- IDS --"; "-- WP --"; "-- TM --"; "HP"; "Rand"; "LB" ]

let test_figure_csv () =
  let csv = List.assoc "fig4.csv" (snd (small_figure ())) in
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
  let doc, csvs =
    report (Sim.Flowlevel.table3 Sim.Experiment.Campus ~file:"table3.csv" ~flows:2_000 ~seed:17 ())
  in
  let out = text doc in
  Alcotest.(check bool) "mentions max" true (contains out "max.");
  Alcotest.(check bool) "mentions min" true (contains out "min.");
  let csv = List.assoc "table3.csv" csvs in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 4 types" 5 (List.length lines)

let test_millions () =
  Alcotest.(check string) "millions" "1.66M" (Sim.Table.millions 1_660_000.0);
  Alcotest.(check string) "thousands" "12.7k" (Sim.Table.millions 12_737.0);
  Alcotest.(check string) "units" "42" (Sim.Table.millions 42.0)

let test_ablation_printers () =
  (* Tiny runs through every remaining printer. *)
  let report a = text (fst (a.Sim.Ablation.report (Sim.Ablation.sweep a))) in
  Alcotest.(check bool) "cache report" true
    (contains (report (Sim.Ablation.cache ~flows:100 ~seed:17)) "lookup fraction");
  Alcotest.(check bool) "frag report" true
    (contains (report (Sim.Ablation.frag ~flows:100 ~seed:17)) "label switching");
  Alcotest.(check bool) "latency report" true
    (contains (report (Sim.Ablation.lat ~flows:100 ~seed:17)) "overhead")

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

(* A probe run with the given horizon and event count: the report
   constants derive from it. *)
let probe ~horizon ~events =
  { (Lazy.force stats_template) with Sim.Pktsim.sim_time = horizon; events_processed = events }

let csv name (_, csvs) = List.assoc name csvs

(* Report builders: the only part of this block that follows the
   report signatures; the expected bytes below do not. *)
let pinned_chaos () =
  Sim.Ablation.chaos_report ~victim:3 ~survivors:[ 1; 2 ] ~link:(Some (0, 2))
    ~probe:(probe ~horizon:100.0 ~events:9_000)
    [
      (("HP+failover", 2.0), mk_stats 1 ~audit:None);
      (("LB+failover", 10.0), mk_stats 2 ~audit:(Some 0));
      (("LB, no failover", infinity), mk_stats 3 ~audit:(Some 7));
    ]

(* The lossiest row's per-device arrays: one proxy, one middlebox. *)
let with_devices (s : Sim.Pktsim.stats) =
  {
    s with
    Sim.Pktsim.entity_config_version = [| 6; 5 |];
    entity_control_retries = [| 1; 5 |];
    entity_control_lost = [| 2; 4 |];
  }

let pinned_live () =
  Sim.Ablation.live_report ~n_proxies:1
    ~stale:{ (probe ~horizon:50.0 ~events:0) with Sim.Pktsim.loads = [| 1000.0 |] }
    ~clairvoyant:{ (probe ~horizon:50.0 ~events:0) with Sim.Pktsim.loads = [| 4.0e6 |] }
    [ (0.0, mk_stats 1 ~audit:None); (0.10, with_devices (mk_stats 2 ~audit:(Some 3))) ]

let pinned_quorum () =
  Sim.Ablation.quorum_report ~leader_router:6 ~probe:(probe ~horizon:100.0 ~events:8_000)
    [
      (("leader crash", 0.02), mk_stats 1 ~audit:None);
      (("quorum loss", 0.45), mk_stats 2 ~audit:(Some 0));
    ]

let pinned_corrupt () =
  Sim.Ablation.corrupt_report ~probe:(probe ~horizon:120.0 ~events:7_000)
    [
      (("HP", 0.1, None), mk_stats 1 ~audit:None);
      (("LB", 0.4, Some 12.5), mk_stats 2 ~audit:(Some 2));
    ]

let pinned_reopt () =
  let step failed ~seed (cold, cold_phase1) (warm, warm_phase1) agree =
    {
      Sim.Experiment.rs_failed = failed;
      rs_cold_pivots = cold;
      rs_cold_phase1 = cold_phase1;
      rs_warm_pivots = warm;
      rs_warm_phase1 = warm_phase1;
      rs_cold_lambda = 1234.5678905;
      rs_warm_lambda = 1234.567891;
      rs_seed = seed;
      rs_warm_used = warm = 0;
      rs_fallback = warm <> 0;
      rs_agree = agree;
    }
  in
  Sim.Ablation.reopt_report
    ~topologies:[ ("campus", 23, (4, 9), probe ~horizon:120.0 ~events:6_000) ]
    ~replays:
      [ ( "campus",
          [ step [] ~seed:None (40, 160) (0, 0) true;
            step [ 4 ] ~seed:(Some []) (38, 150) (7, 9) true;
            step [ 4; 9 ] ~seed:(Some [ 4 ]) (35, 140) (12, 20) false;
            step [ 9 ] ~seed:(Some []) (30, 120) (0, 0) true ] ) ]
    [
      (("campus", 23, false), mk_stats 1 ~audit:None);
      (("campus", 23, true), mk_stats 2 ~audit:(Some 0));
    ]

(* Renderers under test, one per pinned artifact. *)
let chaos_text c = text (fst c)
let live_text l = text (fst l)
let quorum_text q = text (fst q)
let corrupt_text c = text (fst c)
let reopt_text r = text (fst r)

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
proxy0            6     0        1     2
mbox0             5     1        5     4
|}
    (live_text l);
  pinned "live CSV"
    {|loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit
0.00,1001,991,3,5,21,20,1,1,1,12345,2500001,
0.10,1002,992,0,6,22,21,2,0,2,24690,2500002,3
|}
    (csv "abl_live.csv" l);
  pinned "live devices CSV"
    {|device,version,lag,retries,lost
proxy0,6,0,1,2
mbox0,5,1,5,4
|}
    (csv "abl_live_devices.csv" l)

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
    (csv "abl_quorum.csv" q)

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
    (csv "abl_corrupt.csv" c)

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
scenario step failed     seeded from cold pivots cold phase1 warm pivots warm phase1  warm  fallback  agree
campus      1 -          plan                 40         160           0           0   yes        no    yes
campus      2 4          -                    38         150           7           9    no       yes    yes
campus      3 4+9        4                    35         140          12          20    no       yes     NO
campus      4 9          -                    30         120           0           0   yes        no    yes
replay pivots (phase 1 + phase 2): cold 713, warm 48
warm/cold objective agreement: 3/4 replay steps
|}
    (reopt_text r);
  pinned "reopt CSV"
    {|scenario,routers,mode,reopts,pivots,phase1,warm_used,fallback,injected,delivered,violating,versions,degraded,max_load,audit
campus,23,cold,5,121,30,1,1,1001,991,3,5,1,2500001,
campus,23,warm,6,122,30,2,1,1002,992,0,6,0,2500002,0
|}
    (csv "abl_reopt.csv" r);
  pinned "reopt steps CSV"
    {|scenario,step,failed,seeded_from,cold_pivots,cold_phase1,warm_pivots,warm_phase1,cold_lambda,warm_lambda,warm_used,fallback,agree
campus,1,,plan,40,160,0,0,1234.567890,1234.567891,true,false,true
campus,2,4,,38,150,7,9,1234.567890,1234.567891,false,true,true
campus,3,4+9,4,35,140,12,20,1234.567890,1234.567891,false,true,false
campus,4,9,,30,120,0,0,1234.567890,1234.567891,true,false,true
|}
    (csv "abl_reopt_steps.csv" r)

(* Hand-built reports keep the CSV emitter tests fast and let them pin
   exact cell values, including both states of the audit column.  The
   lossiest row carries one proxy's and one middlebox's device
   counters. *)
let synthetic_live_report () =
  let row ~loss ~audit =
    ( loss,
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
        entity_config_version = [| 4; 3 |];
        entity_control_retries = [| 1; 5 |];
        entity_control_lost = [| 2; 4 |];
        audit_report = Option.map audit_report audit;
      } )
  in
  Sim.Ablation.live_report ~n_proxies:1
    ~stale:{ (probe ~horizon:50.0 ~events:6_000) with Sim.Pktsim.loads = [| 1000.0 |] }
    ~clairvoyant:{ (probe ~horizon:50.0 ~events:6_000) with Sim.Pktsim.loads = [| 400.0 |] }
    [ row ~loss:0.0 ~audit:None; row ~loss:0.10 ~audit:(Some 3) ]

let test_live_csv () =
  let csv = csv "abl_live.csv" (synthetic_live_report ()) in
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
  let csv = csv "abl_live_devices.csv" (synthetic_live_report ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 2 devices" 3 (List.length lines);
  Alcotest.(check string) "header" "device,version,lag,retries,lost"
    (List.hd lines);
  Alcotest.(check string) "proxy row" "proxy0,4,0,1,2" (List.nth lines 1);
  Alcotest.(check string) "mbox row" "mbox0,3,1,5,4" (List.nth lines 2)

let test_live_and_chaos_printers_audit_column () =
  let out = text (fst (synthetic_live_report ())) in
  Alcotest.(check bool) "live header has audit" true (contains out "audit");
  Alcotest.(check bool) "live shows dash when off" true (contains out " -");
  let chaos_row ~audit =
    ( ("LB+failover", 2.0),
      {
        (Lazy.force stats_template) with
        Sim.Pktsim.injected_packets = 100;
        delivered_packets = 99;
        dropped_packets = 1;
        policy_violations = 1;
        control_retries = 0;
        last_violation_time = 26.5;
        audit_report = Option.map audit_report audit;
      } )
  in
  let out =
    text
      (fst
         (Sim.Ablation.chaos_report ~victim:11 ~survivors:[ 0 ] ~link:(Some (0, 2))
            ~probe:(probe ~horizon:100.0 ~events:9_000)
            [ chaos_row ~audit:None; chaos_row ~audit:(Some 7) ]))
  in
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
