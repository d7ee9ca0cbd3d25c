(* Tests for the link-state routing substrate: LSA semantics, flooding
   convergence, and equality with the global Dijkstra oracle. *)

let test_lsa_newer () =
  let a = Ospf.Lsa.make ~origin:1 ~seq:2 ~links:[ (2, 1.0) ] in
  let b = Ospf.Lsa.make ~origin:1 ~seq:1 ~links:[ (2, 1.0) ] in
  Alcotest.(check bool) "a newer" true (Ospf.Lsa.newer_than a b);
  Alcotest.(check bool) "b older" false (Ospf.Lsa.newer_than b a);
  let c = Ospf.Lsa.make ~origin:2 ~seq:3 ~links:[] in
  Alcotest.check_raises "different origins"
    (Invalid_argument "Lsa.newer_than: different origins") (fun () ->
      ignore (Ospf.Lsa.newer_than a c))

let test_router_install () =
  let r = Ospf.Router.create ~id:0 ~neighbors:[ (1, 1.0) ] in
  let lsa1 = Ospf.Lsa.make ~origin:5 ~seq:1 ~links:[ (0, 1.0) ] in
  Alcotest.(check bool) "new LSA installs" true (Ospf.Router.install r lsa1);
  Alcotest.(check bool) "same LSA refuses" false (Ospf.Router.install r lsa1);
  let lsa2 = Ospf.Lsa.make ~origin:5 ~seq:2 ~links:[ (0, 2.0) ] in
  Alcotest.(check bool) "newer LSA installs" true (Ospf.Router.install r lsa2);
  Alcotest.(check bool) "older LSA refuses" false (Ospf.Router.install r lsa1);
  Alcotest.(check int) "lsdb size" 1 (Ospf.Router.lsdb_size r)

let test_router_originate_bumps_seq () =
  let r = Ospf.Router.create ~id:3 ~neighbors:[] in
  let a = Ospf.Router.originate r in
  let b = Ospf.Router.originate r in
  Alcotest.(check bool) "seq grows" true (b.Ospf.Lsa.seq > a.Ospf.Lsa.seq)

let tables_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : int array) y -> x = y) a b

let check_topology topo =
  let session = Ospf.Session.start topo in
  let oracle = Netgraph.Routing.build_all topo.Netgraph.Topology.graph in
  Alcotest.(check bool) "tables equal oracle" true
    (tables_equal (Ospf.Session.tables session) oracle);
  Alcotest.(check bool) "some messages flowed" true
    (Ospf.Session.messages session > 0)

let test_converge_campus () = check_topology (Netgraph.Campus.generate ~seed:3 ())

let test_converge_waxman_small () =
  let params = { Netgraph.Waxman.default_params with edges = 50; cores = 10 } in
  check_topology (Netgraph.Waxman.generate ~params ~seed:3 ())

let test_converge_line () =
  (* Pathological diameter: a 30-node line. *)
  let g = Netgraph.Graph.create 30 in
  for i = 0 to 28 do
    Netgraph.Graph.add_edge g i (i + 1) 1.0
  done;
  let roles = Array.make 30 Netgraph.Topology.Core in
  let topo = Netgraph.Topology.make ~name:"line" ~graph:g ~roles in
  check_topology topo

let qcheck_converge_random =
  QCheck.Test.make ~count:20 ~name:"flooded tables = oracle on random graphs"
    QCheck.(make Gen.(pair (int_range 3 20) (int_range 0 1000000)))
    (fun (n, seed) ->
      let rng = Stdx.Rng.create seed in
      let topo =
        Netgraph.Random_graph.topology ~rng ~nodes:n ~extra_edges:0 ()
      in
      let session = Ospf.Session.start ~jitter_seed:seed topo in
      tables_equal (Ospf.Session.tables session)
        (Netgraph.Routing.build_all topo.Netgraph.Topology.graph))

let test_full_lsdb () =
  let topo = Netgraph.Campus.generate ~seed:4 () in
  let n = Netgraph.Graph.node_count topo.Netgraph.Topology.graph in
  let tables = Ospf.Session.tables (Ospf.Session.start topo) in
  (* Convergence implies every router heard every LSA; spot-check by
     recomputing with a different jitter seed and demanding identical
     tables (flooding must be jitter-independent once quiescent). *)
  let again = Ospf.Session.start ~jitter_seed:12345 topo in
  Alcotest.(check bool) "jitter-independent result" true
    (tables_equal tables (Ospf.Session.tables again));
  Alcotest.(check int) "n tables" n (Array.length tables)

(* --- Reconvergence after link failures ------------------------------ *)

let bridges g =
  (* Edges whose removal disconnects the graph — the failures the
     session model cannot handle (no LSA aging). *)
  List.filter
    (fun (u, v, _) ->
      let n = Netgraph.Graph.node_count g in
      let g' = Netgraph.Graph.create n in
      List.iter
        (fun (a, b, c) ->
          if not (a = u && b = v) then Netgraph.Graph.add_edge g' a b c)
        (Netgraph.Graph.edges g);
      not (Netgraph.Graph.is_connected g'))
    (Netgraph.Graph.edges g)

let test_session_matches_converge () =
  (* Pins the initial flood on campus seed 17 (default jitter): its
     LSA count and quiescence time, and a rerun identical in both and
     in the tables. *)
  let topo = Netgraph.Campus.generate ~seed:17 () in
  let run () =
    let s = Ospf.Session.start topo in
    (Ospf.Session.tables s, Ospf.Session.messages s,
     Ospf.Session.convergence_time s)
  in
  let tables, messages, time = run () in
  Alcotest.(check int) "LSA transmissions" 3948 messages;
  Alcotest.(check string) "convergence time" "5.48" (Printf.sprintf "%.2f" time);
  Alcotest.(check bool) "initial tables" true
    (tables_equal tables
       (Netgraph.Routing.build_all topo.Netgraph.Topology.graph));
  Alcotest.(check bool) "deterministic rerun" true ((tables, messages, time) = run ())

let test_session_reconverges_after_failure () =
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  let baseline_messages = Ospf.Session.messages session in
  (* Fail three non-bridge links in sequence; after each, tables must
     match Dijkstra on the surviving graph. *)
  let failed = ref 0 in
  List.iter
    (fun (u, v, _) ->
      if !failed < 3 then begin
        let survivors = Ospf.Session.surviving_graph session in
        (* Skip if removing (u,v) would disconnect what is left. *)
        let still_connected =
          let n = Netgraph.Graph.node_count survivors in
          let g' = Netgraph.Graph.create n in
          List.iter
            (fun (a, b, c) ->
              if not (a = min u v && b = max u v) then
                Netgraph.Graph.add_edge g' a b c)
            (Netgraph.Graph.edges survivors);
          Netgraph.Graph.is_connected g'
        in
        if still_connected then begin
          incr failed;
          Ospf.Session.fail_link session u v;
          let oracle =
            Netgraph.Routing.build_all (Ospf.Session.surviving_graph session)
          in
          Alcotest.(check bool)
            (Printf.sprintf "tables after failing %d-%d" u v)
            true
            (tables_equal (Ospf.Session.tables session) oracle)
        end
      end)
    (Netgraph.Graph.edges topo.Netgraph.Topology.graph);
  Alcotest.(check int) "three failures exercised" 3 !failed;
  Alcotest.(check bool) "reconvergence traffic flowed" true
    (Ospf.Session.messages session > baseline_messages)

let test_session_rejects_bad_failures () =
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  (match Ospf.Session.fail_link session 0 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted a self-link");
  let u, v, _ = List.hd (Netgraph.Graph.edges topo.Netgraph.Topology.graph) in
  Ospf.Session.fail_link session u v;
  match Ospf.Session.fail_link session u v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted a double failure"

let test_session_cost_change () =
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  (* Raise the metric on a gateway-core link: reconverged tables must
     equal the oracle on the re-weighted graph. *)
  let gw = List.hd (Netgraph.Topology.gateways topo) in
  let core = List.hd (Netgraph.Topology.cores topo) in
  Ospf.Session.change_cost session gw core 10.0;
  let oracle = Netgraph.Routing.build_all (Ospf.Session.surviving_graph session) in
  Alcotest.(check bool) "tables after re-costing" true
    (tables_equal (Ospf.Session.tables session) oracle);
  (* And the surviving graph really carries the new cost. *)
  Alcotest.(check (option (float 1e-9))) "new cost visible" (Some 10.0)
    (Netgraph.Graph.cost (Ospf.Session.surviving_graph session) gw core);
  (* Changing it again (e.g. back down) also reconverges. *)
  Ospf.Session.change_cost session gw core 1.0;
  let oracle = Netgraph.Routing.build_all (Ospf.Session.surviving_graph session) in
  Alcotest.(check bool) "tables after reverting" true
    (tables_equal (Ospf.Session.tables session) oracle);
  (* Bad inputs are rejected. *)
  Alcotest.(check bool) "rejects non-positive cost" true
    (match Ospf.Session.change_cost session gw core 0.0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_session_recover_link () =
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  let oracle = Netgraph.Routing.build_all topo.Netgraph.Topology.graph in
  (* Fail a non-bridge link, then bring it back: tables and the
     surviving graph must match the pristine network again. *)
  let u, v, c =
    List.find
      (fun e -> not (List.mem e (bridges topo.Netgraph.Topology.graph)))
      (Netgraph.Graph.edges topo.Netgraph.Topology.graph)
  in
  Ospf.Session.fail_link session u v;
  let messages_while_down = Ospf.Session.messages session in
  Ospf.Session.recover_link session u v;
  Alcotest.(check bool) "tables back to pristine" true
    (tables_equal (Ospf.Session.tables session) oracle);
  Alcotest.(check (option (float 1e-9))) "original cost restored" (Some c)
    (Netgraph.Graph.cost (Ospf.Session.surviving_graph session) u v);
  Alcotest.(check bool) "recovery flooded LSAs" true
    (Ospf.Session.messages session > messages_while_down)

let test_session_recover_rejects_never_failed () =
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  let u, v, _ = List.hd (Netgraph.Graph.edges topo.Netgraph.Topology.graph) in
  (match Ospf.Session.recover_link session u v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "recovered a link that never failed");
  (* Recovery is symmetric in its endpoints, and one-shot. *)
  Ospf.Session.fail_link session u v;
  Ospf.Session.recover_link session v u;
  match Ospf.Session.recover_link session u v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double recovery accepted"

let test_session_recover_preserves_recost () =
  (* A link whose metric was changed, then failed, comes back at the
     changed metric — the session remembers the operator's re-costing. *)
  let topo = Netgraph.Campus.generate ~seed:3 () in
  let session = Ospf.Session.start topo in
  let u, v, _ =
    List.find
      (fun e -> not (List.mem e (bridges topo.Netgraph.Topology.graph)))
      (Netgraph.Graph.edges topo.Netgraph.Topology.graph)
  in
  Ospf.Session.change_cost session u v 10.0;
  Ospf.Session.fail_link session u v;
  Ospf.Session.recover_link session u v;
  Alcotest.(check (option (float 1e-9))) "re-costed metric survives" (Some 10.0)
    (Netgraph.Graph.cost (Ospf.Session.surviving_graph session) u v);
  let oracle = Netgraph.Routing.build_all (Ospf.Session.surviving_graph session) in
  Alcotest.(check bool) "tables match oracle" true
    (tables_equal (Ospf.Session.tables session) oracle)

let qcheck_session_random_failures =
  QCheck.Test.make ~count:15 ~name:"session reconverges on random graphs"
    QCheck.(make Gen.(pair (int_range 4 14) (int_range 0 1000000)))
    (fun (n, seed) ->
      let rng = Stdx.Rng.create seed in
      (* Extra edges create failure headroom. *)
      let topo =
        Netgraph.Random_graph.topology ~rng ~nodes:n ~extra_edges:n ~max_cost:3 ()
      in
      let g = topo.Netgraph.Topology.graph in
      let session = Ospf.Session.start ~jitter_seed:seed topo in
      let non_bridges =
        List.filter
          (fun (u, v, c) -> not (List.mem (u, v, c) (bridges g)))
          (Netgraph.Graph.edges g)
      in
      match non_bridges with
      | [] -> true (* nothing safely failable *)
      | (u, v, _) :: _ ->
        Ospf.Session.fail_link session u v;
        tables_equal (Ospf.Session.tables session)
          (Netgraph.Routing.build_all (Ospf.Session.surviving_graph session)))

let suite =
  [
    Alcotest.test_case "lsa ordering" `Quick test_lsa_newer;
    Alcotest.test_case "session matches converge" `Quick test_session_matches_converge;
    Alcotest.test_case "session reconverges after failures" `Quick
      test_session_reconverges_after_failure;
    Alcotest.test_case "session rejects bad failures" `Quick
      test_session_rejects_bad_failures;
    Alcotest.test_case "session link cost change" `Quick test_session_cost_change;
    Alcotest.test_case "session link recovery" `Quick test_session_recover_link;
    Alcotest.test_case "session recovery rejects never-failed" `Quick
      test_session_recover_rejects_never_failed;
    Alcotest.test_case "session recovery preserves recost" `Quick
      test_session_recover_preserves_recost;
    QCheck_alcotest.to_alcotest qcheck_session_random_failures;
    Alcotest.test_case "router install" `Quick test_router_install;
    Alcotest.test_case "originate bumps seq" `Quick test_router_originate_bumps_seq;
    Alcotest.test_case "converge campus" `Quick test_converge_campus;
    Alcotest.test_case "converge waxman (small)" `Quick test_converge_waxman_small;
    Alcotest.test_case "converge 30-node line" `Quick test_converge_line;
    QCheck_alcotest.to_alcotest qcheck_converge_random;
    Alcotest.test_case "jitter independence" `Quick test_full_lsdb;
  ]
