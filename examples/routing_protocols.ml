(* The link-state routing substrate.

   The paper's networks "forward packets based on classical routing
   protocols such as OSPF" and know nothing about policies.  This
   example floods LSAs to convergence in an [Ospf.Session] on the
   campus and Waxman topologies, checks every router's table against
   the global Dijkstra oracle, reports the message cost, and finishes
   with a live link failure that the session reconverges around.  It
   exits 1 if any table differs from the oracle.

     dune exec examples/routing_protocols.exe *)

let check_topology name topo =
  Format.printf "== %s: %a ==@." name Netgraph.Topology.pp topo;
  let ospf = Ospf.Session.start topo in
  let oracle_tables = Netgraph.Routing.build_all topo.Netgraph.Topology.graph in
  let ospf_ok =
    Array.for_all2 (fun (a : int array) b -> a = b) (Ospf.Session.tables ospf)
      oracle_tables
  in
  Format.printf "OSPF (link-state):    %6d messages, t=%5.1f, tables = oracle: %b@.@."
    (Ospf.Session.messages ospf)
    (Ospf.Session.convergence_time ospf) ospf_ok;
  if not ospf_ok then exit 1

let () =
  check_topology "campus" (Netgraph.Campus.generate ~seed:17 ());
  check_topology "waxman" (Netgraph.Waxman.generate ~seed:17 ());

  (* A live failure: the link-state session heals around a lost link. *)
  let topo = Netgraph.Campus.generate ~seed:17 () in
  let session = Ospf.Session.start topo in
  let before = Ospf.Session.messages session in
  (* Fail the first core-to-gateway link (cores are dual-homed, so the
     network stays connected). *)
  let gw = List.hd (Netgraph.Topology.gateways topo) in
  let core = List.hd (Netgraph.Topology.cores topo) in
  Format.printf "== failing link %d -- %d (gateway-core) ==@." gw core;
  Ospf.Session.fail_link session gw core;
  let oracle = Netgraph.Routing.build_all (Ospf.Session.surviving_graph session) in
  let healed =
    Array.for_all2 (fun (a : int array) b -> a = b) (Ospf.Session.tables session)
      oracle
  in
  Format.printf
    "reconverged with %d extra LSA transmissions; tables = oracle on the \
     surviving graph: %b@."
    (Ospf.Session.messages session - before)
    healed;
  if not healed then exit 1
