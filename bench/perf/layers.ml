(* Per-layer numbers for a traced run.  Each layer is timed from
   outside: the benchmark replays the workload's own flows, packets and
   failure sets through the layer's public functions in batches, one
   span per batch, and reports the median batch.  Counts are read from
   the output of the first timed repetition; they are deterministic. *)

open Workloads

(* At most this many of the workload's flows are replayed per batch. *)
let max_sample = 50_000

type timing = { ns_per_op : float; words_per_op : float }

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Run batches until [budget] seconds have passed (at least one) and
   report the median.  [prepare ()] builds a batch's input state
   untimed and returns the timed part, which reports how many
   operations it performed. *)
let measure ~budget label prepare =
  let deadline = Unix.gettimeofday () +. budget in
  let rec go acc =
    let batch = prepare () in
    let w0 = Gc.minor_words () in
    let ops, dt = Span.timed ("layer." ^ label) batch in
    let words = Gc.minor_words () -. w0 in
    let ops = float_of_int (max 1 ops) in
    let acc = (dt *. 1e9 /. ops, words /. ops) :: acc in
    if Unix.gettimeofday () < deadline then go acc else acc
  in
  let samples = go [] in
  {
    ns_per_op = median (List.map fst samples);
    words_per_op = median (List.map snd samples);
  }

(* A batch of repeated calls to [f], at least a millisecond long so the
   clock's resolution does not matter. *)
let repeated f () () =
  let t0 = Span.now () in
  let rec go ops =
    let ops = ops + f () in
    if Span.now () -. t0 < 1e-3 then go ops else ops
  in
  go 0

(* Every steering decision of a flow's chain under [c]: the proxy picks
   the first function's box, each box the next one. *)
let walk_chain c ~rule (fs : Sim.Workload.flow_spec) =
  let rec go entity n = function
    | [] -> n
    | nf :: rest ->
      let mb = Sdm.Controller.next_hop c entity ~rule ~nf fs.Sim.Workload.flow in
      go (Mbox.Entity.Middlebox mb.Mbox.Middlebox.id) (n + 1) rest
  in
  go (Mbox.Entity.Proxy fs.Sim.Workload.src_proxy) 0 rule.Policy.Rule.actions

type packet_path = {
  trie : timing;
  dectree : timing;
  cache_insert : timing;
  cache_lookup : timing;
  label_insert : timing;
  label_find : timing;
  next_hop : (string * timing) list;  (** per strategy: hp, rand, lb *)
  hash : timing;
}

(* Classifier, flow-cache, label-table, steering and hashing batches
   over the workload's flows, on per-proxy tables of the LB plan. *)
let packet_path env ~budget ~strategies =
  let all_flows = env.workload.Sim.Workload.flows in
  let flows = Array.sub all_flows 0 (min max_sample (Array.length all_flows)) in
  let n = Array.length flows in
  let rule_of = Sim.Workload.rule_of env.workload in
  let dep = env.deployment in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let n_mboxes = Array.length dep.Sdm.Deployment.middleboxes in
  let lb = List.assoc "lb" strategies in
  let tables build =
    Array.init n_proxies (fun p ->
        build (Sdm.Controller.policy_table_for lb (Mbox.Entity.Proxy p)))
  in
  let classify first_match tables () =
    let hits = ref 0 in
    for i = 0 to n - 1 do
      let fs = flows.(i) in
      match first_match tables.(fs.Sim.Workload.src_proxy) fs.Sim.Workload.flow with
      | Some _ -> incr hits
      | None -> ()
    done;
    ignore (Sys.opaque_identity !hits);
    n
  in
  let tries = tables Policy.Trie.build in
  let trees = tables (fun rules -> Policy.Dectree.build rules) in
  (* Per-proxy caches, sized the way the packet simulator sizes them. *)
  let fresh_caches () =
    Array.init n_proxies (fun _ ->
        Policy.Flow_cache.create ~timeout:1e9 ~expected:(max 64 (n / max 1 n_proxies)) ())
  in
  let caches = ref (fresh_caches ()) in
  let insert_all () =
    for i = 0 to n - 1 do
      let fs = flows.(i) in
      let cache = !caches.(fs.Sim.Workload.src_proxy) in
      match rule_of fs with
      | Some rule ->
        ignore
          (Policy.Flow_cache.insert cache ~now:0.0 fs.Sim.Workload.flow
             ~rule_id:rule.Policy.Rule.id ~actions:rule.Policy.Rule.actions ())
      | None ->
        ignore (Policy.Flow_cache.insert_negative cache ~now:0.0 fs.Sim.Workload.flow)
    done;
    n
  in
  let lookup_all () =
    let hits = ref 0 in
    for i = 0 to n - 1 do
      let fs = flows.(i) in
      match
        Policy.Flow_cache.lookup !caches.(fs.Sim.Workload.src_proxy) ~now:1.0
          fs.Sim.Workload.flow
      with
      | Some _ -> incr hits
      | None -> ()
    done;
    ignore (Sys.opaque_identity !hits);
    n
  in
  let enforced =
    Array.to_list flows
    |> List.filter_map (fun fs ->
           match rule_of fs with
           | Some rule when not (Policy.Action.is_permit rule.Policy.Rule.actions) ->
             Some (fs, rule)
           | _ -> None)
    |> Array.of_list
  in
  (* Label entries land at the first box of each enforced flow's chain
     under the LB plan, keyed by the source and a per-proxy label
     counter, as the proxies assign them. *)
  let label_keys =
    let next_label = Array.make n_proxies 0 in
    Array.map
      (fun ((fs : Sim.Workload.flow_spec), rule) ->
        let p = fs.Sim.Workload.src_proxy in
        let mb =
          Sdm.Controller.next_hop lb (Mbox.Entity.Proxy p) ~rule
            ~nf:(List.hd rule.Policy.Rule.actions) fs.Sim.Workload.flow
        in
        let label = next_label.(p) land Netpkt.Header.max_label in
        next_label.(p) <- next_label.(p) + 1;
        (mb.Mbox.Middlebox.id, fs.Sim.Workload.flow, rule.Policy.Rule.actions, label))
      enforced
  in
  let fresh_labels () = Array.init n_mboxes (fun _ -> Mbox.Label_table.create ()) in
  let labels = ref (fresh_labels ()) in
  let label_insert () =
    Array.iter
      (fun (mb, (flow : Netpkt.Flow.t), actions, label) ->
        Mbox.Label_table.insert !labels.(mb) ~now:0.0
          { Mbox.Label_table.src = flow.Netpkt.Flow.src; label }
          ~actions ~next:None ~final_dst:(Some flow.Netpkt.Flow.dst))
      label_keys;
    Array.length label_keys
  in
  let label_find () =
    let hits = ref 0 in
    Array.iter
      (fun (mb, (flow : Netpkt.Flow.t), _, label) ->
        match
          Mbox.Label_table.find !labels.(mb) ~now:1.0 ~src:flow.Netpkt.Flow.src ~label
        with
        | Some _ -> incr hits
        | None -> ())
      label_keys;
    ignore (Sys.opaque_identity !hits);
    Array.length label_keys
  in
  let steer c () =
    Array.fold_left (fun acc (fs, rule) -> acc + walk_chain c ~rule fs) 0 enforced
  in
  let hash_all () =
    let acc = ref 0L in
    for i = 0 to n - 1 do
      acc := Int64.logxor !acc (Netpkt.Flow.hash flows.(i).Sim.Workload.flow)
    done;
    ignore (Sys.opaque_identity !acc);
    n
  in
  let measure = measure ~budget in
  let trie = measure "policy.trie.first_match" (repeated (classify Policy.Trie.first_match tries)) in
  let dectree =
    measure "policy.dectree.first_match" (repeated (classify Policy.Dectree.first_match trees))
  in
  let cache_insert =
    measure "policy.flow_cache.insert" (fun () ->
        caches := fresh_caches ();
        insert_all)
  in
  (* lookups hit the caches the last insert batch filled *)
  let cache_lookup = measure "policy.flow_cache.lookup" (repeated lookup_all) in
  let label_insert =
    measure "mbox.label_table.insert" (fun () ->
        labels := fresh_labels ();
        label_insert)
  in
  let label_find = measure "mbox.label_table.find" (repeated label_find) in
  let next_hop =
    List.map
      (fun (s, c) -> (s, measure ("sdm.controller.next_hop." ^ s) (repeated (steer c))))
      strategies
  in
  let hash = measure "netpkt.flow.hash" (repeated hash_all) in
  { trie; dectree; cache_insert; cache_lookup; label_insert; label_find; next_hop; hash }

(* schedule+step on a 1,024-deep queue of self-rescheduling events. *)
let engine_batch () =
  let e = Dess.Engine.create () in
  let delays =
    Array.init 1024 (fun i -> float_of_int (1 + (i * 7919 mod 1024)) /. 64.0)
  in
  let k = ref 0 in
  let rec tick e =
    incr k;
    ignore (Dess.Engine.schedule e ~delay:delays.(!k land 1023) tick)
  in
  for i = 0 to 1023 do
    ignore (Dess.Engine.schedule e ~delay:delays.(i) tick)
  done;
  let steps = 200_000 in
  fun () ->
    for _ = 1 to steps do
      ignore (Dess.Engine.step e)
    done;
    steps

type lp_chain = {
  cold_ms : float list;   (** per cold solve *)
  warm_ms : float list;   (** per warm solve *)
  cold_words : float;     (** minor words per cold solve *)
  cold_pivots : int;
  warm_pivots : int;
  phase1_pivots : int;    (** of [cold_pivots], phase-1 and drive-out *)
  vars : int;
  constraints : int;
}

(* The workload's failure-set chain through the Eq. (2) LP, cold (fresh
   candidate sets, no basis) and warm (patched candidate sets, the
   previous step's basis), each solve in its own span. *)
let lp_chain env =
  let rules = env.workload.Sim.Workload.rules in
  let k = Sdm.Controller.default_k in
  let solve label ?warm cands =
    let w0 = Gc.minor_words () in
    match
      Span.timed label (fun () ->
          Sdm.Lp_formulation.solve_simplified cands ~rules ~traffic:env.traffic ?warm ())
    with
    | Ok r, dt -> (r, dt *. 1e3, Gc.minor_words () -. w0)
    | Error e, _ -> failwith ("LP replay: " ^ e)
  in
  let cold =
    List.map
      (fun failed ->
        solve "layer.sdm.lp_formulation.cold_solve"
          (Sdm.Candidate.compute ~exclude:failed env.deployment ~k))
      env.failure_sets
  in
  let base = Sdm.Candidate.compute env.deployment ~k in
  let first, _, _ = solve "layer.sdm.lp_formulation.cold_solve" base in
  let _, warm =
    List.fold_left_map
      (fun prev failed ->
        let cands =
          match Sdm.Candidate.with_excluded base failed with
          | Ok c -> c
          | Error e -> failwith ("candidate patch: " ^ e)
        in
        let ((r, _, _) as s) =
          solve "layer.sdm.lp_formulation.warm_solve"
            ?warm:prev.Sdm.Lp_formulation.lp_snapshot cands
        in
        (r, s))
      first env.failure_sets
  in
  let pivots f l = List.fold_left (fun acc (r, _, _) -> acc + f r) 0 l in
  (* [lp_pivots] counts phase-2 pivots; phase-1 and drive-out pivots
     are counted apart in [lp_phase1_pivots]. *)
  let total r = r.Sdm.Lp_formulation.lp_pivots + r.Sdm.Lp_formulation.lp_phase1_pivots in
  let r0, _, _ = List.hd cold in
  {
    cold_ms = List.map (fun (_, ms, _) -> ms) cold;
    warm_ms = List.map (fun (_, ms, _) -> ms) warm;
    cold_words =
      List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 cold
      /. float_of_int (List.length cold);
    cold_pivots = pivots total cold;
    warm_pivots = pivots total warm;
    phase1_pivots = pivots (fun r -> r.Sdm.Lp_formulation.lp_phase1_pivots) cold;
    vars = r0.Sdm.Lp_formulation.lp_vars;
    constraints = r0.Sdm.Lp_formulation.lp_constraints;
  }

(* The packet simulator's counters, split into data-plane and
   control-plane ones; zero on workloads that run no packet-level
   simulation. *)
let data_plane_counts : (string * string * (Sim.Pktsim.stats -> float)) list =
  let per f (s : Sim.Pktsim.stats) =
    float_of_int (f s) /. float_of_int (max 1 s.Sim.Pktsim.injected_packets)
  in
  let share a b (s : Sim.Pktsim.stats) =
    let a = a s and b = b s in
    if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
  in
  Sim.Pktsim.
    [
      ("sim.pktsim.events_per_packet", "count", per (fun s -> s.events_processed));
      ("sim.pktsim.lookups_per_packet", "count", per (fun s -> s.multi_field_lookups));
      ( "sim.pktsim.cache_hit_ratio", "ratio",
        share (fun s -> s.cache_hits + s.cache_negative_hits) (fun s -> s.multi_field_lookups) );
      ( "sim.pktsim.label_switched_share", "ratio",
        share (fun s -> s.label_switched_packets) (fun s -> s.tunneled_packets) );
      ("sim.pktsim.router_hops_per_packet", "count", per (fun s -> s.router_hops));
      ("sim.pktsim.control_per_packet", "count", per (fun s -> s.control_packets));
    ]

let control_plane_counts : (string * string * (Sim.Pktsim.stats -> float)) list =
  let count f s = float_of_int (f s) in
  Sim.Pktsim.
    [
      ("sim.pktsim.reoptimizations", "count", count (fun s -> s.reoptimizations));
      ("sim.pktsim.reopt_pivots", "count", count (fun s -> s.reopt_pivots));
      ("sim.pktsim.reopt_warm_used", "count", count (fun s -> s.reopt_warm_used));
      ("sim.pktsim.reopt_fallback", "count", count (fun s -> s.reopt_fallback));
      ("sim.pktsim.config_pushes", "count", count (fun s -> s.config_pushes));
      ("sim.pktsim.config_lost", "count", count (fun s -> s.config_lost));
      ("sim.pktsim.quorum_rounds", "count", count (fun s -> s.quorum_rounds));
    ]

let all_entities dep =
  List.init (Array.length dep.Sdm.Deployment.proxies) (fun i -> Mbox.Entity.Proxy i)
  @ List.init (Array.length dep.Sdm.Deployment.middleboxes) (fun i ->
        Mbox.Entity.Middlebox i)

(* The per-layer metrics of one workload, as (name, unit, value).
   [first] is the first timed repetition's output, [calls] the call
   times of every timed repetition (seconds), [rep_s] the median
   repetition time and [setups] the phase times of each set-up
   build. *)
let run env ~budget ~first ~calls ~rep_s ~setups =
  let rules = env.workload.Sim.Workload.rules in
  let strategies =
    Span.with_ "layer.setup.strategies" (fun () ->
        [
          ("hp", configure env.deployment ~rules Sdm.Controller.Hot_potato);
          ("rand", configure env.deployment ~rules Sdm.Controller.Random_uniform);
          ("lb", configure env.deployment ~rules (Sdm.Controller.Load_balanced env.traffic));
        ])
  in
  let lb = List.assoc "lb" strategies in
  let pp = packet_path env ~budget ~strategies in
  let engine = measure ~budget "dess.engine.event" engine_batch in
  let ms t = t.ns_per_op /. 1e6 in
  let k = Sdm.Controller.default_k in
  let candidates =
    measure ~budget "sdm.candidate.compute"
      (repeated (fun () ->
           ignore (Sys.opaque_identity (Sdm.Candidate.compute env.deployment ~k));
           1))
  in
  let base = Sdm.Candidate.compute env.deployment ~k in
  let victim = List.nth env.failure_sets 1 in
  let patch =
    measure ~budget "sdm.candidate.with_excluded"
      (repeated (fun () ->
           ignore (Sys.opaque_identity (Sdm.Candidate.with_excluded base victim));
           1))
  in
  (* LP chains until the budget is spent (at least one). *)
  let chains =
    let deadline = Unix.gettimeofday () +. budget in
    let rec go acc =
      let acc = lp_chain env :: acc in
      if Unix.gettimeofday () < deadline then go acc else acc
    in
    go []
  in
  let chain = List.hd chains in
  let pooled f = List.concat_map f chains in
  let cold_ms = median (pooled (fun c -> c.cold_ms)) in
  let warm_ms = median (pooled (fun c -> c.warm_ms)) in
  let warm_chain_ms =
    median (List.map (fun c -> List.fold_left ( +. ) 0.0 c.warm_ms) chains)
  in
  let cold_chain_ms =
    median (List.map (fun c -> List.fold_left ( +. ) 0.0 c.cold_ms) chains)
  in
  let failed_plan =
    match
      Sdm.Controller.reoptimize lb ~failed:victim ~use_warm:false ~traffic:env.traffic ()
    with
    | Ok c -> c
    | Error e -> failwith ("verify replay: " ^ e)
  in
  let verify =
    measure ~budget "sdm.verify.check"
      (repeated (fun () ->
           ignore (Sys.opaque_identity (Sdm.Verify.check lb));
           1))
  in
  let verify_mixed =
    measure ~budget "sdm.verify.check_mixed"
      (repeated (fun () ->
           ignore (Sys.opaque_identity (Sdm.Verify.check_mixed lb failed_plan));
           1))
  in
  let graph = env.deployment.Sdm.Deployment.topo.Netgraph.Topology.graph in
  let routing =
    measure ~budget "netgraph.routing.build_all"
      (repeated (fun () ->
           ignore (Sys.opaque_identity (Netgraph.Routing.build_all graph));
           1))
  in
  let entities = all_entities env.deployment in
  let trie_build =
    measure ~budget "policy.trie.build"
      (repeated (fun () ->
           List.iter
             (fun e ->
               ignore
                 (Sys.opaque_identity
                    (Policy.Trie.build (Sdm.Controller.policy_table_for env.plan e))))
             entities;
           1))
  in
  (* Flow-level runs per strategy: the timed repetitions' own calls on
     flow-waxman (HP, Rand, LB in turn), a replay everywhere else. *)
  let flowsim_ms, flow_events =
    match first with
    | Flows results ->
      let per_strategy i =
        median
          (List.filteri (fun j _ -> j mod 3 = i) calls |> List.map (fun s -> s *. 1e3))
      in
      ( [ per_strategy 0; per_strategy 1; per_strategy 2 ],
        List.fold_left (fun acc r -> acc + r.Sim.Flowsim.events) 0 results )
    | Packets _ | Solves _ ->
      let flowsim controller () = Sim.Flowsim.run ~controller ~workload:env.workload () in
      ( List.map
          (fun (s, controller) ->
            ms
              (measure ~budget ("sim.flowsim." ^ s)
                 (repeated (fun () ->
                      ignore (Sys.opaque_identity (flowsim controller ()));
                      1))))
          strategies,
        List.fold_left
          (fun acc (_, controller) -> acc + (flowsim controller ()).Sim.Flowsim.events)
          0 strategies )
  in
  let n_flows = Array.length env.workload.Sim.Workload.flows in
  let timing name t =
    [ (name ^ "_ns", "ns", t.ns_per_op); (name ^ "_words", "words", t.words_per_op) ]
  in
  let nh s = List.assoc s pp.next_hop in
  let counts =
    List.map (fun (name, unit_, f) ->
        (name, unit_, match first with Packets s -> f s | Flows _ | Solves _ -> 0.0))
  in
  (* How much of a repetition the layers account for: Σ count × cost
     per op over the median repetition time. *)
  let explained =
    let f = float_of_int in
    let accounted_ms =
      match first with
      | Packets s ->
        let open Sim.Pktsim in
        let lookups = f s.multi_field_lookups in
        let ns =
          (lookups *. pp.trie.ns_per_op)
          +. (f (s.cache_hits + s.cache_negative_hits + s.multi_field_lookups)
              *. pp.cache_lookup.ns_per_op)
          +. (lookups *. pp.cache_insert.ns_per_op)
          +. (f s.label_switched_packets *. pp.label_find.ns_per_op)
          +. (f s.tunneled_packets
              *. (pp.label_insert.ns_per_op +. (nh "lb").ns_per_op))
          +. (f s.events_processed *. engine.ns_per_op)
        in
        (ns /. 1e6) +. ms trie_build +. ms routing
        +. (f s.reoptimizations *. (warm_ms +. ms verify_mixed))
      | Flows results ->
        List.fold_left2
          (fun acc (r : Sim.Flowsim.result) (_, t) ->
            acc +. (f (r.Sim.Flowsim.events - n_flows) *. t.ns_per_op /. 1e6))
          0.0 results pp.next_hop
      | Solves steps ->
        warm_chain_ms +. (f (List.length steps) *. ms patch)
    in
    accounted_ms /. (rep_s *. 1e3)
  in
  let setup_ms label =
    median
      (List.filter_map
         (fun phases -> Option.map (fun s -> s *. 1e3) (List.assoc_opt label phases))
         setups)
  in
  timing "policy.trie.first_match" pp.trie
  @ timing "policy.dectree.first_match" pp.dectree
  @ timing "policy.flow_cache.lookup" pp.cache_lookup
  @ timing "policy.flow_cache.insert" pp.cache_insert
  @ [ ("mbox.label_table.find_ns", "ns", pp.label_find.ns_per_op) ]
  @ timing "mbox.label_table.insert" pp.label_insert
  @ [
      ("sdm.controller.next_hop_hp_ns", "ns", (nh "hp").ns_per_op);
      ("sdm.controller.next_hop_rand_ns", "ns", (nh "rand").ns_per_op);
      ("sdm.controller.next_hop_lb_ns", "ns", (nh "lb").ns_per_op);
      ("sdm.controller.next_hop_lb_words", "words", (nh "lb").words_per_op);
      ("netpkt.flow.hash_ns", "ns", pp.hash.ns_per_op);
    ]
  @ timing "dess.engine.event" engine
  @ [ ("dess.engine.events_per_s", "1/s", 1e9 /. engine.ns_per_op) ]
  @ counts data_plane_counts
  @ [
      ( "sim.flowsim.events_per_flow", "count",
        float_of_int flow_events /. float_of_int (3 * max 1 n_flows) );
      ("sim.flowsim.hp_ms", "ms", List.nth flowsim_ms 0);
      ("sim.flowsim.rand_ms", "ms", List.nth flowsim_ms 1);
      ("sim.flowsim.lb_ms", "ms", List.nth flowsim_ms 2);
      ("sdm.candidate.compute_ms", "ms", ms candidates);
      ("sdm.candidate.with_excluded_ms", "ms", ms patch);
      ("sdm.lp_formulation.cold_solve_ms", "ms", cold_ms);
      ("sdm.lp_formulation.warm_solve_ms", "ms", warm_ms);
      ("sdm.lp_formulation.solve_mwords", "Mwords", chain.cold_words /. 1e6);
      ("sdm.lp_formulation.vars", "count", float_of_int chain.vars);
      ("sdm.lp_formulation.constraints", "count", float_of_int chain.constraints);
      ("lp.simplex.cold_pivots", "count", float_of_int chain.cold_pivots);
      ("lp.simplex.warm_pivots", "count", float_of_int chain.warm_pivots);
      ("lp.simplex.phase1_pivots", "count", float_of_int chain.phase1_pivots);
      ( "lp.simplex.ms_per_pivot", "ms",
        cold_chain_ms /. float_of_int (max 1 chain.cold_pivots) );
      ("sdm.verify.check_ms", "ms", ms verify);
      ("sdm.verify.check_mixed_ms", "ms", ms verify_mixed);
    ]
  @ counts control_plane_counts
  @ [
      ("sdm.deployment.build_ms", "ms", setup_ms "deployment");
      ("sim.workload.generate_ms", "ms", setup_ms "workload");
      ("netgraph.routing.build_all_ms", "ms", ms routing);
      ("policy.trie.build_ms", "ms", ms trie_build);
      ("sdm.controller.configure_ms", "ms", setup_ms "controller");
      ("explained_share", "ratio", explained);
    ]
