(* Tests for the online invariant audit harness (lib/audit): clean
   audited runs across the simulator's feature combinations, audit-off
   bit-identity, deliberate corruption detection, synthetic checker
   unit tests on hand-built event streams, the Pktsim<->Flowsim
   differential oracle, and deterministic-replay properties. *)

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let campus ?(seed = 21) () =
  Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed

let pkt_config =
  { Sim.Pktsim.default_config with packet_interval = 0.5; start_window = 20.0 }

let audited = { pkt_config with Sim.Pktsim.audit = true }

let setup ?(strategy = `Lb) ?(flows = 200) ?(seed = 21) () =
  let dep = campus ~seed () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed ~flows () in
  let kind =
    match strategy with
    | `Hp -> Sdm.Controller.Hot_potato
    | `Rand -> Sdm.Controller.Random_uniform
    | `Lb -> Sdm.Controller.Load_balanced (Sim.Workload.measure workload)
  in
  match Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules kind with
  | Error e -> Alcotest.fail e
  | Ok controller -> (controller, workload)

let report (s : Sim.Pktsim.stats) =
  match s.Sim.Pktsim.audit_report with
  | Some r -> r
  | None -> Alcotest.fail "audited run produced no audit report"

let check_clean name (s : Sim.Pktsim.stats) =
  let r = report s in
  (match r.Audit.Checker.sample with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name
      r.Audit.Checker.violations
      (Format.asprintf "%a" Audit.Checker.pp_violation v));
  Alcotest.(check bool) (name ^ " ok") true (Audit.Checker.ok r);
  r

(* --- Audited end-to-end runs ------------------------------------------- *)

let test_audit_clean_run () =
  let controller, workload = setup () in
  let s = Sim.Pktsim.run ~config:audited ~controller ~workload () in
  let r = check_clean "clean LB run" s in
  Alcotest.(check int) "every packet audited" s.Sim.Pktsim.injected_packets
    r.Audit.Checker.packets;
  Alcotest.(check int) "every flow audited"
    (Array.length workload.Sim.Workload.flows)
    r.Audit.Checker.flows;
  Alcotest.(check int) "deliveries split"
    s.Sim.Pktsim.delivered_packets
    (r.Audit.Checker.delivered + r.Audit.Checker.wp_served);
  Alcotest.(check bool) "steering decisions observed" true
    (r.Audit.Checker.decisions > 0);
  Alcotest.(check bool) "events outnumber packets" true
    (r.Audit.Checker.events > r.Audit.Checker.packets);
  (* The report pretty-printer holds together. *)
  let text = Format.asprintf "%a" Audit.Checker.pp_report r in
  Alcotest.(check bool) "report renders" true
    (String.length text > 0 && String.index_opt text 'a' <> None)

let test_audit_off_bit_identical () =
  (* The audit is a pure observer: switching it on changes no other
     statistic, bit for bit. *)
  let controller, workload = setup () in
  let plainr = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let auditedr = Sim.Pktsim.run ~config:audited ~controller ~workload () in
  Alcotest.(check bool) "no report when off" true
    (plainr.Sim.Pktsim.audit_report = None);
  ignore (check_clean "audited twin" auditedr);
  Alcotest.(check bool) "all other stats bit-identical" true
    ({ auditedr with Sim.Pktsim.audit_report = None } = plainr)

let test_audit_clean_variants () =
  (* Every data-path feature the simulator has, audited: plain
     tunnelling, ECMP, web-proxy cache serving, label expiry plus
     teardown recovery, bounded caches, FIFO queueing, hot potato. *)
  let controller, workload = setup ~flows:120 () in
  let variants =
    [
      ("no label switching", { audited with Sim.Pktsim.label_switching = false });
      ("ecmp", { audited with Sim.Pktsim.ecmp = true });
      ("wp cache", { audited with Sim.Pktsim.wp_cache_hit_ratio = 0.5 });
      ( "label expiry",
        { audited with Sim.Pktsim.packet_interval = 10.0; label_timeout = 3.0 } );
      ("bounded caches", { audited with Sim.Pktsim.cache_capacity = Some 64 });
      ("queueing", { audited with Sim.Pktsim.service_rate = 2.0 });
    ]
  in
  List.iter
    (fun (name, config) ->
      let s = Sim.Pktsim.run ~config ~controller ~workload () in
      ignore (check_clean name s);
      if name = "wp cache" then
        Alcotest.(check bool) "wp actually served" true
          (s.Sim.Pktsim.wp_cache_served > 0);
      if name = "label expiry" then
        Alcotest.(check bool) "misses actually happened" true
          (s.Sim.Pktsim.label_misses > 0))
    variants;
  let hp_controller, _ = setup ~strategy:`Hp ~flows:120 () in
  ignore
    (check_clean "hot potato"
       (Sim.Pktsim.run ~config:audited ~controller:hp_controller ~workload ()))

let test_audit_catches_bypass () =
  (* The deliberate-corruption hook: every 5th packet skips its chain.
     The audit must catch each escape as a chain violation carrying the
     packet's hop history. *)
  let controller, workload = setup ~flows:100 () in
  let config = { audited with Sim.Pktsim.debug_bypass_chain = Some 5 } in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  let r = report s in
  Alcotest.(check bool) "violations found" true (r.Audit.Checker.violations > 0);
  Alcotest.(check bool) "not ok" false (Audit.Checker.ok r);
  let chains =
    List.filter
      (fun v -> v.Audit.Checker.invariant = Audit.Checker.Chain)
      r.Audit.Checker.sample
  in
  Alcotest.(check bool) "chain violations sampled" true (chains <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "violation carries a trace" true
        (v.Audit.Checker.trace <> []);
      Alcotest.(check bool) "trace starts at admission" true
        (match v.Audit.Checker.trace with
        | first :: _ ->
          (* The oldest trace line is the admission record. *)
          contains_sub first "admitted at proxy"
        | [] -> false))
    chains;
  (* The escape is invisible to the simulator's own counters — only
     the audit sees it. *)
  Alcotest.(check int) "sim itself counted no violations" 0
    s.Sim.Pktsim.policy_violations

let test_audit_clean_chaos () =
  (* A full chaos run — crash, recovery, link loss, control loss, the
     detection-delay blind window — audits clean: dead-box and
     link-loss drops are legitimate terminals, failover re-steering is
     sticky per liveness view, and nothing else trips. *)
  let controller, workload = setup ~flows:150 () in
  let schedule =
    Fault.Schedule.make ~link_loss:0.02 ~control_loss:0.2 ~loss_seed:7
      Fault.Schedule.
        [
          { at = 15.0; what = Mbox_crash 0 };
          { at = 45.0; what = Mbox_recover 0 };
        ]
  in
  List.iter
    (fun failover ->
      let config =
        {
          audited with
          Sim.Pktsim.faults = Some schedule;
          detection_delay = 3.0;
          failover;
        }
      in
      let s = Sim.Pktsim.run ~config ~controller ~workload () in
      let r =
        check_clean (Printf.sprintf "chaos failover=%b" failover) s
      in
      Alcotest.(check int) "audit saw every drop" s.Sim.Pktsim.dropped_packets
        r.Audit.Checker.dropped)
    [ true; false ]

let test_audit_clean_live () =
  (* The live control plane: epoch re-optimizations publish versions
     over a lossy channel while traffic flows.  Version-tagged caches,
     clamped decisions and staged installs must all audit clean. *)
  let controller, workload = setup ~strategy:`Hp ~flows:120 () in
  let probe = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = probe.Sim.Pktsim.sim_time /. 4.0;
      reconcile_interval = probe.Sim.Pktsim.sim_time /. 16.0;
    }
  in
  let schedule = Fault.Schedule.make ~control_loss:0.10 ~loss_seed:5 [] in
  let config =
    { audited with Sim.Pktsim.faults = Some schedule; live = Some live }
  in
  let s = Sim.Pktsim.run ~config ~controller ~workload () in
  let r = check_clean "live run" s in
  Alcotest.(check bool) "versions were published" true
    (s.Sim.Pktsim.final_config_version > 0);
  Alcotest.(check int) "audit tracked every version"
    s.Sim.Pktsim.final_config_version r.Audit.Checker.versions

let test_ablation_audit_plumbing () =
  (* The Experiment layer threads [?audit] down to every packet-level
     row and reports the per-row verdicts. *)
  let chaos =
    Sim.Experiment.ablation_chaos ~flows:80 ~audit:true
      ~detection_delays:[ 5.0 ] ()
  in
  List.iter
    (fun (row : Sim.Experiment.chaos_row) ->
      Alcotest.(check (option int))
        ("chaos row " ^ row.Sim.Experiment.chaos_mode)
        (Some 0) (Sim.Experiment.audit_violations row.Sim.Experiment.stats))
    chaos.Sim.Experiment.chaos_rows;
  let live =
    Sim.Experiment.ablation_live ~flows:80 ~audit:true ~control_losses:[ 0.05 ]
      ()
  in
  List.iter
    (fun (row : Sim.Experiment.live_row) ->
      Alcotest.(check (option int)) "live row" (Some 0)
        (Sim.Experiment.audit_violations row.Sim.Experiment.stats))
    live.Sim.Experiment.live_rows;
  (* Audit off: the rows say so instead of claiming a clean pass. *)
  let plain =
    Sim.Experiment.ablation_chaos ~flows:80 ~detection_delays:[ 5.0 ] ()
  in
  List.iter
    (fun (row : Sim.Experiment.chaos_row) ->
      Alcotest.(check (option int)) "unaudited row" None
        (Sim.Experiment.audit_violations row.Sim.Experiment.stats))
    plain.Sim.Experiment.chaos_rows

let test_audit_reopt_ablation () =
  (* Warm-started in-run plans under churn: the audited ABL-REOPT runs
     — crash, concurrent crash, staged recovery, control loss, warm
     and cold rows alike — must satisfy every enforcement invariant
     (LP-plan feasibility and mixed-version hygiene included), and the
     controller-level replay must agree on the optimum at every
     step. *)
  let r = Sim.Experiment.ablation_reopt ~flows:80 ~audit:true () in
  List.iter
    (fun (row : Sim.Experiment.reopt_row) ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s warm=%b audits clean" row.Sim.Experiment.rp_scenario
           row.Sim.Experiment.rp_warm)
        (Some 0) (Sim.Experiment.audit_violations row.Sim.Experiment.stats))
    r.Sim.Experiment.rp_rows;
  Alcotest.(check int) "four audited rows" 4
    (List.length r.Sim.Experiment.rp_rows);
  Alcotest.(check int) "warm/cold optima agree on every replay step"
    r.Sim.Experiment.rp_total r.Sim.Experiment.rp_agree;
  (* Warm starting must not perturb the data plane: per scenario the
     warm row injects the same packets and publishes the same number
     of versions as the cold row. *)
  List.iter
    (fun (info : Sim.Experiment.reopt_scenario_info) ->
      let row warm =
        List.find
          (fun (row : Sim.Experiment.reopt_row) ->
            row.Sim.Experiment.rp_scenario = info.Sim.Experiment.ri_name
            && row.Sim.Experiment.rp_warm = warm)
          r.Sim.Experiment.rp_rows
      in
      let cold = (row false).Sim.Experiment.stats
      and warm = (row true).Sim.Experiment.stats in
      Alcotest.(check int)
        (info.Sim.Experiment.ri_name ^ " same injected")
        cold.Sim.Pktsim.injected_packets warm.Sim.Pktsim.injected_packets;
      Alcotest.(check int)
        (info.Sim.Experiment.ri_name ^ " same versions")
        cold.Sim.Pktsim.final_config_version warm.Sim.Pktsim.final_config_version)
    r.Sim.Experiment.rp_infos

let test_audit_reopt_jobs_shards_identical () =
  (* The sharding discipline extends to the new experiment: the whole
     report — audited rows, pivot counters, replay steps, float
     lambdas — is structurally identical under {1,1} and {2,2}. *)
  let a = Sim.Experiment.ablation_reopt ~flows:60 ~audit:true ~jobs:1 ~shards:1 () in
  let b = Sim.Experiment.ablation_reopt ~flows:60 ~audit:true ~jobs:2 ~shards:2 () in
  Alcotest.(check bool) "jobs/shards bit-identity" true (a = b)

(* --- Synthetic event streams: each invariant fires ---------------------- *)

let mk_flow i =
  Netpkt.Flow.make ~src:(1000 + i) ~dst:2000 ~proto:6 ~sport:(i mod 60000)
    ~dport:80

let enforced_rule (controller : Sdm.Controller.t) =
  List.find
    (fun (r : Policy.Rule.t) ->
      not (Policy.Action.is_permit r.Policy.Rule.actions))
    controller.Sdm.Controller.rules

let fresh_checker ?min_samples () =
  let controller, _ = setup ~flows:10 () in
  (Audit.Checker.create ?min_samples ~controller (), controller)

let violations_of ?expect checker =
  let r = Audit.Checker.finalize ?expect checker in
  (r.Audit.Checker.violations, r.Audit.Checker.sample)

let test_checker_lost_packet () =
  let c, controller = fresh_checker () in
  let rule = enforced_rule controller in
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid = 0;
         time = 1.0;
         flow = mk_flow 0;
         proxy = 0;
         admission =
           Audit.Event.Chained
             { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel };
         version = 0;
         bytes = 100;
         label = None;
       });
  let n, sample = violations_of c in
  Alcotest.(check int) "one violation" 1 n;
  match sample with
  | [ v ] ->
    Alcotest.(check bool) "conservation" true
      (v.Audit.Checker.invariant = Audit.Checker.Conservation)
  | _ -> Alcotest.fail "expected exactly one sampled violation"

let test_checker_duplicate_terminal () =
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid = 0;
         time = 1.0;
         flow = mk_flow 0;
         proxy = 0;
         admission = Audit.Event.Unmatched;
         version = 0;
         bytes = 64;
         label = None;
       });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 2.0; bytes = 64 });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 3.0; bytes = 64 });
  let n, _ = violations_of c in
  Alcotest.(check int) "duplicate delivery flagged" 1 n

let test_checker_chain_violations () =
  let c, controller = fresh_checker () in
  let rule = enforced_rule controller in
  let admit aid =
    Audit.Checker.record c
      (Audit.Event.Admitted
         {
           aid;
           time = 1.0;
           flow = mk_flow aid;
           proxy = 0;
           admission =
             Audit.Event.Chained
               { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel };
           version = 0;
           bytes = 100;
           label = None;
         })
  in
  (* Packet 0: delivered with an empty chain. *)
  admit 0;
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 2.0; bytes = 100 });
  (* Packet 1: full correct chain — no violation. *)
  admit 1;
  List.iteri
    (fun i nf ->
      Audit.Checker.record c
        (Audit.Event.Enforced
           { aid = 1; time = 2.0 +. float_of_int i; mbox = i; nf }))
    rule.Policy.Rule.actions;
  Audit.Checker.record c (Audit.Event.Delivered { aid = 1; time = 9.0; bytes = 100 });
  (* Packet 2: wrong function enforced. *)
  let wrong =
    if rule.Policy.Rule.actions = [ Policy.Action.TM ] then Policy.Action.FW
    else Policy.Action.TM
  in
  admit 2;
  Audit.Checker.record c
    (Audit.Event.Enforced { aid = 2; time = 2.0; mbox = 0; nf = wrong });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 2; time = 3.0; bytes = 100 });
  let n, sample = violations_of c in
  Alcotest.(check int) "two chain violations" 2 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "chain invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Chain);
      Alcotest.(check bool) "has trace" true (v.Audit.Checker.trace <> []))
    sample

let test_checker_stickiness () =
  let c, controller = fresh_checker () in
  let rule = enforced_rule controller in
  let nf = List.hd rule.Policy.Rule.actions in
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid = 0;
         time = 1.0;
         flow = mk_flow 0;
         proxy = 0;
         admission =
           Audit.Event.Chained
             { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel };
         version = 0;
         bytes = 100;
         label = None;
       });
  let steer ~time ~mbox =
    Audit.Checker.record c
      (Audit.Event.Steered
         {
           aid = 0;
           time;
           entity = Mbox.Entity.Proxy 0;
           rule_id = rule.Policy.Rule.id;
           nf;
           version = 0;
           view = 0L;
           mbox;
         })
  in
  steer ~time:1.0 ~mbox:0;
  steer ~time:2.0 ~mbox:0;
  (* same choice: fine *)
  steer ~time:3.0 ~mbox:1;
  (* different choice, same key: violation *)
  Audit.Checker.record c (Audit.Event.Dropped { aid = 0; time = 4.0; reason = Audit.Event.Link_loss });
  let n, sample = violations_of c in
  Alcotest.(check int) "one stickiness violation" 1 n;
  Alcotest.(check bool) "right invariant" true
    (match sample with
    | [ v ] -> v.Audit.Checker.invariant = Audit.Checker.Stickiness
    | _ -> false)

let test_checker_label_hygiene () =
  let c, _ = fresh_checker () in
  (* A hit on a label nobody installed. *)
  Audit.Checker.record c
    (Audit.Event.Label_hit { mbox = 0; time = 1.0; src = 7; label = 3; version = 0 });
  (* An insert tagged with a version the device is not running. *)
  Audit.Checker.record c
    (Audit.Event.Label_insert { mbox = 1; time = 2.0; src = 7; label = 4; version = 9 });
  let n, sample = violations_of c in
  Alcotest.(check int) "two hygiene violations" 2 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "hygiene invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Hygiene))
    sample

let test_checker_label_purged_on_install () =
  let c, controller = fresh_checker () in
  let n_proxies =
    Array.length controller.Sdm.Controller.deployment.Sdm.Deployment.proxies
  in
  let dev = n_proxies in
  (* mbox 0's device index *)
  Audit.Checker.record c
    (Audit.Event.Label_insert { mbox = 0; time = 1.0; src = 7; label = 3; version = 0 });
  Audit.Checker.record c (Audit.Event.Config_publish { time = 2.0; version = 1 });
  Audit.Checker.record c (Audit.Event.Config_install { dev; time = 3.0; version = 1 });
  (* Still staged: v0 is within {installed-1, installed}. *)
  Audit.Checker.record c
    (Audit.Event.Label_hit { mbox = 0; time = 4.0; src = 7; label = 3; version = 0 });
  Audit.Checker.record c (Audit.Event.Config_publish { time = 5.0; version = 2 });
  Audit.Checker.record c (Audit.Event.Config_install { dev; time = 6.0; version = 2 });
  (* Now v0 must have been purged: using it is a hygiene violation. *)
  Audit.Checker.record c
    (Audit.Event.Label_hit { mbox = 0; time = 7.0; src = 7; label = 3; version = 0 });
  let n, _ = violations_of c in
  Alcotest.(check int) "stale-label use flagged" 1 n

let test_checker_config_hygiene () =
  let c, _ = fresh_checker () in
  (* Installing a version that was never published. *)
  Audit.Checker.record c (Audit.Event.Config_install { dev = 0; time = 1.0; version = 5 });
  (* Publishing then regressing a device. *)
  Audit.Checker.record c (Audit.Event.Config_publish { time = 2.0; version = 1 });
  Audit.Checker.record c (Audit.Event.Config_install { dev = 1; time = 3.0; version = 1 });
  Audit.Checker.record c (Audit.Event.Config_install { dev = 1; time = 4.0; version = 0 });
  let n, _ = violations_of c in
  Alcotest.(check int) "unpublished + regression" 2 n

(* --- Quorum agreement ---------------------------------------------- *)

let test_checker_quorum_clean () =
  (* The happy path of the replicated control plane: propose, a quorum
     of accepts, commits on every replica, then publish — no findings.
     Leader elections are informational and never flagged. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.0; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_accept { time = 1.1; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_accept { time = 1.2; version = 1; replica = 1; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.3; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.4; version = 1; replica = 1; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.5; version = 1; replica = 2; digest = 7L });
  Audit.Checker.record c (Audit.Event.Leader_elect { time = 1.6; replica = 1; previous = 0 });
  Audit.Checker.record c (Audit.Event.Config_publish { time = 2.0; version = 1 });
  let n, _ = violations_of c in
  Alcotest.(check int) "clean quorum round" 0 n

let test_checker_quorum_publish_gate () =
  (* Once any quorum event has been seen, no version may reach the
     publish stage without a commit; a legacy single-controller stream
     (no quorum events at all) stays exempt. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c (Audit.Event.Config_publish { time = 1.0; version = 1 });
  let n, _ = violations_of c in
  Alcotest.(check int) "legacy stream exempt" 0 n;
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.0; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.1; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c (Audit.Event.Config_publish { time = 1.2; version = 1 });
  Audit.Checker.record c (Audit.Event.Config_publish { time = 2.0; version = 2 });
  let n, sample = violations_of c in
  Alcotest.(check int) "uncommitted publish flagged" 1 n;
  Alcotest.(check bool) "quorum invariant" true
    (match sample with
    | [ v ] -> v.Audit.Checker.invariant = Audit.Checker.Quorum
    | _ -> false)

let test_checker_quorum_divergent_commit () =
  (* Two replicas committing different digests for one version is the
     split-brain disaster the round exists to prevent.  A superseding
     re-proposal of the same version is legal; divergent commits are
     not. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.0; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.1; version = 1; replica = 0; digest = 9L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.2; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.3; version = 1; replica = 1; digest = 9L });
  let n, sample = violations_of c in
  Alcotest.(check int) "divergent commit flagged" 1 n;
  Alcotest.(check bool) "quorum invariant" true
    (match sample with
    | [ v ] -> v.Audit.Checker.invariant = Audit.Checker.Quorum
    | _ -> false)

let test_checker_quorum_unproposed () =
  (* Accepting or committing a (version, digest) nobody proposed means
     the round was skipped. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Quorum_accept { time = 1.0; version = 3; replica = 1; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.1; version = 4; replica = 1; digest = 8L });
  let n, _ = violations_of c in
  Alcotest.(check int) "unproposed accept + commit" 2 n

let test_checker_quorum_commit_regression () =
  (* A replica's committed version may never move backwards. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.0; version = 1; replica = 0; digest = 7L });
  Audit.Checker.record c
    (Audit.Event.Quorum_propose { time = 1.1; version = 2; replica = 0; digest = 8L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.2; version = 2; replica = 0; digest = 8L });
  Audit.Checker.record c
    (Audit.Event.Quorum_commit { time = 1.3; version = 1; replica = 0; digest = 7L });
  let n, sample = violations_of c in
  Alcotest.(check int) "commit regression flagged" 1 n;
  Alcotest.(check bool) "quorum invariant" true
    (match sample with
    | [ v ] -> v.Audit.Checker.invariant = Audit.Checker.Quorum
    | _ -> false)

(* --- Corruption repair --------------------------------------------- *)

let label_site = Audit.Event.Label_site { mbox = 0; src = 7; label = 3 }

let corrupt_inject ?(cid = 0) ?(kind = Audit.Event.Lost_entry)
    ?(site = label_site) ?(deadline = 10.0) ~time c =
  Audit.Checker.record c
    (Audit.Event.Corrupt_inject { time; cid; kind; site; deadline })

let test_checker_repair_clean () =
  (* The happy anti-entropy path: inject, manifest, detect, repair
     within the deadline — no findings.  A corruption that never
     manifested needs no repair either. *)
  let c, _ = fresh_checker () in
  corrupt_inject c ~cid:0 ~time:1.0 ~deadline:10.0;
  Audit.Checker.record c
    (Audit.Event.Corrupt_manifest { time = 2.0; cid = 0; aid = -1 });
  Audit.Checker.record c (Audit.Event.Corrupt_detect { time = 3.0; dev = 2 });
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 4.0; cid = 0; dev = 2; action = Audit.Event.Purged });
  corrupt_inject c ~cid:1 ~time:5.0 ~deadline:6.0;
  (* cid 1 never manifests: benign by construction, even unrepaired
     and past its deadline. *)
  let n, _ = violations_of c in
  Alcotest.(check int) "clean repair round" 0 n

let test_checker_repair_deadline () =
  (* A manifested corruption repaired after its deadline is flagged on
     arrival; one never repaired at all is caught at finalize — but
     only when the deadline is finite (sweep disabled = infinite). *)
  let late, _ = fresh_checker () in
  corrupt_inject late ~cid:0 ~time:1.0 ~deadline:5.0;
  Audit.Checker.record late
    (Audit.Event.Corrupt_manifest { time = 2.0; cid = 0; aid = -1 });
  Audit.Checker.record late
    (Audit.Event.Corrupt_repair
       { time = 6.0; cid = 0; dev = 2; action = Audit.Event.Rebased });
  let n, sample = violations_of late in
  Alcotest.(check int) "late repair flagged" 1 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "repair invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Repair))
    sample;
  let never, _ = fresh_checker () in
  corrupt_inject never ~cid:0 ~time:1.0 ~deadline:5.0;
  Audit.Checker.record never
    (Audit.Event.Corrupt_manifest { time = 2.0; cid = 0; aid = -1 });
  let n, _ = violations_of never in
  Alcotest.(check int) "never repaired flagged at finalize" 1 n;
  let unswept, _ = fresh_checker () in
  corrupt_inject unswept ~cid:0 ~time:1.0 ~deadline:infinity;
  Audit.Checker.record unswept
    (Audit.Event.Corrupt_manifest { time = 2.0; cid = 0; aid = -1 });
  let n, _ = violations_of unswept in
  Alcotest.(check int) "infinite deadline unenforceable" 0 n

let test_checker_repair_stream_hygiene () =
  (* The repair mirror distrusts the stream itself: detections with
     nothing injected, repairs of unknown corruption ids, double
     repairs, and manifestations after the repair are all findings. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c (Audit.Event.Corrupt_detect { time = 0.5; dev = 0 });
  corrupt_inject c ~cid:0 ~time:1.0 ~deadline:infinity;
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 2.0; cid = 0; dev = 2; action = Audit.Event.Purged });
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 3.0; cid = 0; dev = 2; action = Audit.Event.Purged });
  Audit.Checker.record c
    (Audit.Event.Corrupt_manifest { time = 4.0; cid = 0; aid = -1 });
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 5.0; cid = 9; dev = 2; action = Audit.Event.Purged });
  let n, _ = violations_of c in
  Alcotest.(check int)
    "unarmed detect + double repair + manifest-after-repair + unknown cid" 4 n

let test_checker_repair_staged_window () =
  (* A repair may only re-install certified state: a published version
     that does not regress the device it lands on. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c (Audit.Event.Config_publish { time = 1.0; version = 1 });
  Audit.Checker.record c
    (Audit.Event.Config_install { dev = 0; time = 1.5; version = 1 });
  Audit.Checker.record c
    (Audit.Event.Config_install { dev = 1; time = 1.6; version = 1 });
  corrupt_inject c ~cid:0 ~kind:Audit.Event.Lost_config
    ~site:(Audit.Event.Config_site { dev = 0 })
    ~time:2.0 ~deadline:infinity;
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 3.0; cid = 0; dev = 0; action = Audit.Event.Reinstalled 5 });
  corrupt_inject c ~cid:1 ~kind:Audit.Event.Lost_config
    ~site:(Audit.Event.Config_site { dev = 1 })
    ~time:4.0 ~deadline:infinity;
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 5.0; cid = 1; dev = 1; action = Audit.Event.Reinstalled 0 });
  let n, sample = violations_of c in
  Alcotest.(check int) "unpublished + regressing reinstall" 2 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "repair invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Repair))
    sample

let test_checker_resurrect_excuse () =
  (* A hit on a resurrected label site is the corruption manifesting —
     the injector announces it, so hygiene must not double-count it;
     once the site is repaired the excuse dies with it. *)
  let c, _ = fresh_checker () in
  corrupt_inject c ~cid:0 ~kind:Audit.Event.Resurrected ~time:1.0
    ~deadline:infinity;
  Audit.Checker.record c
    (Audit.Event.Label_hit
       { mbox = 0; time = 2.0; src = 7; label = 3; version = 0 });
  Audit.Checker.record c
    (Audit.Event.Corrupt_repair
       { time = 3.0; cid = 0; dev = 2; action = Audit.Event.Purged });
  Audit.Checker.record c
    (Audit.Event.Label_hit
       { mbox = 0; time = 4.0; src = 7; label = 3; version = 0 });
  (* Exactly one finding: the pre-repair hit was excused, the
     post-repair one is ordinary hygiene. *)
  let n, sample = violations_of c in
  Alcotest.(check int) "post-repair hit is hygiene again" 1 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "hygiene invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Hygiene))
    sample

let test_checker_counter_cross_check () =
  let c, controller = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid = 0;
         time = 1.0;
         flow = mk_flow 0;
         proxy = 0;
         admission = Audit.Event.Unmatched;
         version = 0;
         bytes = 64;
         label = None;
       });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 2.0; bytes = 64 });
  let n_mboxes =
    Array.length controller.Sdm.Controller.deployment.Sdm.Deployment.middleboxes
  in
  (* Matching totals: clean. *)
  let n, _ =
    violations_of
      ~expect:
        {
          Audit.Checker.injected = 1;
          delivered = 1;
          dropped = 0;
          wp_served = 0;
          fragments = 0;
          loads = Array.make n_mboxes 0.0;
        }
      c
  in
  Alcotest.(check int) "matching totals are clean" 0 n;
  (* A second finalize with a cooked injected counter flags it. *)
  let c2, _ = fresh_checker () in
  let n2, _ =
    violations_of
      ~expect:
        {
          Audit.Checker.injected = 3;
          delivered = 0;
          dropped = 0;
          wp_served = 0;
          fragments = 0;
          loads = Array.make n_mboxes 0.0;
        }
      c2
  in
  Alcotest.(check int) "cooked counter flagged" 1 n2

let test_checker_feasibility () =
  (* Steer a large population of distinct flows all to one candidate
     under a Random_uniform plan: the observed split is far outside
     the binomial tolerance and must be flagged. *)
  let controller, _ = setup ~strategy:`Rand ~flows:10 () in
  let rule = enforced_rule controller in
  let nf = List.hd rule.Policy.Rule.actions in
  let cands =
    Sdm.Candidate.get controller.Sdm.Controller.candidates (Mbox.Entity.Proxy 0)
      nf
  in
  Alcotest.(check bool) "needs >= 2 candidates" true (List.length cands >= 2);
  let target = (List.hd cands).Mbox.Middlebox.id in
  let c = Audit.Checker.create ~min_samples:64 ~controller () in
  for i = 0 to 199 do
    Audit.Checker.record c
      (Audit.Event.Admitted
         {
           aid = i;
           time = 1.0;
           flow = mk_flow i;
           proxy = 0;
           admission =
             Audit.Event.Chained
               { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel };
           version = 0;
           bytes = 100;
           label = None;
         });
    Audit.Checker.record c
      (Audit.Event.Steered
         {
           aid = i;
           time = 1.0;
           entity = Mbox.Entity.Proxy 0;
           rule_id = rule.Policy.Rule.id;
           nf;
           version = 0;
           view = 0L;
           mbox = target;
         });
    (* Dropped terminals keep the conservation and chain checks quiet
       so the feasibility signal stands alone. *)
    Audit.Checker.record c
      (Audit.Event.Dropped { aid = i; time = 2.0; reason = Audit.Event.Link_loss })
  done;
  let r = Audit.Checker.finalize c in
  Alcotest.(check bool) "group was large enough to test" true
    (r.Audit.Checker.feasibility_groups >= 1);
  Alcotest.(check bool) "concentration flagged" true
    (r.Audit.Checker.violations >= 1);
  Alcotest.(check bool) "as a feasibility violation" true
    (List.exists
       (fun v -> v.Audit.Checker.invariant = Audit.Checker.Feasibility)
       r.Audit.Checker.sample)

let wp_rule (controller : Sdm.Controller.t) =
  List.find
    (fun (r : Policy.Rule.t) ->
      List.exists (Policy.Action.equal_nf Policy.Action.WP)
        r.Policy.Rule.actions)
    controller.Sdm.Controller.rules

let admit_chained c (rule : Policy.Rule.t) aid =
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid;
         time = 1.0;
         flow = mk_flow aid;
         proxy = 0;
         admission =
           Audit.Event.Chained
             { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel };
         version = 0;
         bytes = 100;
         label = None;
       })

let test_checker_wp_cut_short () =
  (* A cache hit at the WP legally ends the chain early: the enforced
     prefix up to and including the WP satisfies the rule. *)
  let c, controller = fresh_checker () in
  let rule = wp_rule controller in
  admit_chained c rule 0;
  let rec prefix_through_wp i = function
    | [] -> ()
    | nf :: rest ->
      Audit.Checker.record c
        (Audit.Event.Enforced { aid = 0; time = 2.0 +. float_of_int i; mbox = i; nf });
      if not (Policy.Action.equal_nf nf Policy.Action.WP) then
        prefix_through_wp (i + 1) rest
  in
  prefix_through_wp 0 rule.Policy.Rule.actions;
  Audit.Checker.record c (Audit.Event.Wp_served { aid = 0; time = 9.0; mbox = 0 });
  let r = Audit.Checker.finalize c in
  Alcotest.(check int) "clean" 0 r.Audit.Checker.violations;
  Alcotest.(check int) "wp-served counted" 1 r.Audit.Checker.wp_served

let test_checker_wp_needs_wp_tail () =
  (* Served "from the cache" without ever reaching a WP: chain violation. *)
  let c, controller = fresh_checker () in
  let rule = wp_rule controller in
  admit_chained c rule 0;
  Audit.Checker.record c (Audit.Event.Wp_served { aid = 0; time = 2.0; mbox = 0 });
  let n, sample = violations_of c in
  Alcotest.(check int) "one violation" 1 n;
  Alcotest.(check bool) "chain invariant" true
    (match sample with
    | [ v ] -> v.Audit.Checker.invariant = Audit.Checker.Chain
    | _ -> false)

let test_checker_byte_mismatch () =
  let c, _ = fresh_checker () in
  Audit.Checker.record c
    (Audit.Event.Admitted
       {
         aid = 0;
         time = 1.0;
         flow = mk_flow 0;
         proxy = 0;
         admission = Audit.Event.Unmatched;
         version = 0;
         bytes = 100;
         label = None;
       });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 2.0; bytes = 90 });
  let n, sample = violations_of c in
  Alcotest.(check int) "one violation" 1 n;
  match sample with
  | [ v ] ->
    Alcotest.(check bool) "conservation" true
      (v.Audit.Checker.invariant = Audit.Checker.Conservation);
    Alcotest.(check bool) "detail names both sizes" true
      (contains_sub v.Audit.Checker.detail "admitted 100B but delivered 90B")
  | _ -> Alcotest.fail "expected exactly one sampled violation"

let test_checker_orphan_events () =
  (* Terminal and mid-path events for packets never admitted are each
     a conservation violation. *)
  let c, _ = fresh_checker () in
  Audit.Checker.record c (Audit.Event.Delivered { aid = 5; time = 1.0; bytes = 64 });
  Audit.Checker.record c
    (Audit.Event.Enforced { aid = 6; time = 1.0; mbox = 0; nf = Policy.Action.FW });
  Audit.Checker.record c (Audit.Event.Fragmented { aid = 7; time = 1.0; extra = 2 });
  let n, sample = violations_of c in
  Alcotest.(check int) "three violations" 3 n;
  List.iter
    (fun v ->
      Alcotest.(check bool) "conservation invariant" true
        (v.Audit.Checker.invariant = Audit.Checker.Conservation))
    sample

let test_checker_permit_untouched () =
  (* Permitted (non-chained) traffic must bypass the middleboxes
     entirely: enforcement on it is a chain violation, and a clean
     permit delivery is not. *)
  let c, _ = fresh_checker () in
  let admit aid =
    Audit.Checker.record c
      (Audit.Event.Admitted
         {
           aid;
           time = 1.0;
           flow = mk_flow aid;
           proxy = 0;
           admission = Audit.Event.Permit (Some 0);
           version = 0;
           bytes = 64;
           label = None;
         })
  in
  admit 0;
  Audit.Checker.record c (Audit.Event.Delivered { aid = 0; time = 2.0; bytes = 64 });
  admit 1;
  Audit.Checker.record c
    (Audit.Event.Enforced { aid = 1; time = 2.0; mbox = 0; nf = Policy.Action.FW });
  Audit.Checker.record c (Audit.Event.Delivered { aid = 1; time = 3.0; bytes = 64 });
  let n, sample = violations_of c in
  Alcotest.(check int) "one violation" 1 n;
  Alcotest.(check bool) "chain invariant with trace" true
    (match sample with
    | [ v ] ->
      v.Audit.Checker.invariant = Audit.Checker.Chain
      && v.Audit.Checker.trace <> []
    | _ -> false)

(* --- Pktsim <-> Flowsim differential oracle ----------------------------- *)

let test_differential_oracle () =
  (* The tentpole's second half: on fault-free static configurations
     the analytic flow-level loads and the packet-level loads must
     agree exactly, for every steering baseline. *)
  List.iter
    (fun (name, strategy) ->
      let controller, workload = setup ~strategy ~flows:150 () in
      let flow_result = Sim.Flowsim.run ~controller ~workload () in
      let stats = Sim.Pktsim.run ~config:pkt_config ~controller ~workload () in
      let verdict = Sim.Flowsim.differential flow_result stats in
      if not verdict.Audit.Differential.ok then
        Alcotest.failf "%s differential: %s" name
          verdict.Audit.Differential.detail;
      Alcotest.(check (float 0.0)) (name ^ " exact") 0.0
        verdict.Audit.Differential.max_abs)
    [ ("hp", `Hp); ("rand", `Rand); ("lb", `Lb) ]

let test_differential_detects_divergence () =
  let expected = [| 10.0; 20.0; 30.0 |] in
  let observed = [| 10.0; 21.0; 30.0 |] in
  let v = Audit.Differential.compare ~expected ~observed () in
  Alcotest.(check bool) "divergence fails" false v.Audit.Differential.ok;
  Alcotest.(check int) "worst entry" 1 v.Audit.Differential.worst;
  Alcotest.(check (float 1e-12)) "max abs" 1.0 v.Audit.Differential.max_abs;
  let loose = Audit.Differential.compare ~abs_tol:2.0 ~expected ~observed () in
  Alcotest.(check bool) "tolerance admits it" true loose.Audit.Differential.ok;
  let short = Audit.Differential.compare ~expected ~observed:[| 10.0 |] () in
  Alcotest.(check bool) "length mismatch fails" false
    short.Audit.Differential.ok;
  let exact = Audit.Differential.compare ~expected ~observed:expected () in
  Alcotest.(check bool) "identity passes" true exact.Audit.Differential.ok

(* --- Deterministic replay ----------------------------------------------- *)

let qcheck_audited_replay =
  (* Identical seed and configuration give identical stats — including
     the audit report — across two fresh runs, with faults, the live
     control plane and auditing all on.  And every such run audits
     clean: no configuration reachable by this generator produces a
     false positive. *)
  QCheck.Test.make ~count:10 ~name:"audited runs replay bit-identically"
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let rng = Stdx.Rng.create (seed + 3) in
      let controller, workload = setup ~flows:60 () in
      let schedule =
        Fault.Schedule.make
          ~link_loss:(Stdx.Rng.float rng 0.03)
          ~control_loss:(Stdx.Rng.float rng 0.2)
          ~loss_seed:(seed + 11)
          Fault.Schedule.
            [
              { at = 5.0 +. Stdx.Rng.float rng 20.0; what = Mbox_crash 0 };
              { at = 60.0 +. Stdx.Rng.float rng 20.0; what = Mbox_recover 0 };
            ]
      in
      let live =
        { Sim.Pktsim.default_live with epoch_interval = 40.0; reconcile_interval = 7.0 }
      in
      let config =
        {
          audited with
          Sim.Pktsim.seed = seed mod 1000;
          faults = Some schedule;
          detection_delay = 1.0 +. Stdx.Rng.float rng 10.0;
          live = Some live;
        }
      in
      let a = Sim.Pktsim.run ~config ~controller ~workload () in
      let b = Sim.Pktsim.run ~config ~controller ~workload () in
      Audit.Checker.ok (report a) && a = b)

let suite =
  [
    Alcotest.test_case "clean audited run" `Quick test_audit_clean_run;
    Alcotest.test_case "audit off is bit-identical" `Quick
      test_audit_off_bit_identical;
    Alcotest.test_case "feature variants audit clean" `Slow
      test_audit_clean_variants;
    Alcotest.test_case "bypass corruption is caught" `Quick
      test_audit_catches_bypass;
    Alcotest.test_case "chaos run audits clean" `Quick test_audit_clean_chaos;
    Alcotest.test_case "live run audits clean" `Quick test_audit_clean_live;
    Alcotest.test_case "ablation audit plumbing" `Slow
      test_ablation_audit_plumbing;
    Alcotest.test_case "reopt ablation audits clean" `Slow
      test_audit_reopt_ablation;
    Alcotest.test_case "reopt jobs/shards bit-identity" `Slow
      test_audit_reopt_jobs_shards_identical;
    Alcotest.test_case "checker: lost packet" `Quick test_checker_lost_packet;
    Alcotest.test_case "checker: duplicate terminal" `Quick
      test_checker_duplicate_terminal;
    Alcotest.test_case "checker: chain violations" `Quick
      test_checker_chain_violations;
    Alcotest.test_case "checker: stickiness" `Quick test_checker_stickiness;
    Alcotest.test_case "checker: label hygiene" `Quick
      test_checker_label_hygiene;
    Alcotest.test_case "checker: label purge window" `Quick
      test_checker_label_purged_on_install;
    Alcotest.test_case "checker: config hygiene" `Quick
      test_checker_config_hygiene;
    Alcotest.test_case "checker: quorum clean round" `Quick
      test_checker_quorum_clean;
    Alcotest.test_case "checker: quorum publish gate" `Quick
      test_checker_quorum_publish_gate;
    Alcotest.test_case "checker: quorum divergent commit" `Quick
      test_checker_quorum_divergent_commit;
    Alcotest.test_case "checker: quorum unproposed" `Quick
      test_checker_quorum_unproposed;
    Alcotest.test_case "checker: quorum commit regression" `Quick
      test_checker_quorum_commit_regression;
    Alcotest.test_case "checker: repair clean round" `Quick
      test_checker_repair_clean;
    Alcotest.test_case "checker: repair deadline" `Quick
      test_checker_repair_deadline;
    Alcotest.test_case "checker: repair stream hygiene" `Quick
      test_checker_repair_stream_hygiene;
    Alcotest.test_case "checker: repair staged window" `Quick
      test_checker_repair_staged_window;
    Alcotest.test_case "checker: resurrect excuse" `Quick
      test_checker_resurrect_excuse;
    Alcotest.test_case "checker: counter cross-check" `Quick
      test_checker_counter_cross_check;
    Alcotest.test_case "checker: LB feasibility" `Quick
      test_checker_feasibility;
    Alcotest.test_case "checker: wp cut-short is legal" `Quick
      test_checker_wp_cut_short;
    Alcotest.test_case "checker: wp-serve needs a WP tail" `Quick
      test_checker_wp_needs_wp_tail;
    Alcotest.test_case "checker: byte mismatch" `Quick
      test_checker_byte_mismatch;
    Alcotest.test_case "checker: orphan events" `Quick
      test_checker_orphan_events;
    Alcotest.test_case "checker: permitted traffic untouched" `Quick
      test_checker_permit_untouched;
    Alcotest.test_case "differential oracle on baselines" `Quick
      test_differential_oracle;
    Alcotest.test_case "differential detects divergence" `Quick
      test_differential_detects_divergence;
    QCheck_alcotest.to_alcotest qcheck_audited_replay;
  ]
